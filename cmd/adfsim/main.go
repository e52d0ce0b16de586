// Command adfsim runs the mobile-grid campus simulation and regenerates
// the paper's tables and figures.
//
// Usage:
//
//	adfsim [-figure all|table1|4|5|6|7|8|9|energy|percentiles|seeds|scale]
//	       [-duration 1800] [-seed 1] [-factors 0.75,1.0,1.25]
//	       [-estimator gap-aware] [-series] [-workers 0] [-shard-workers 0]
//	       [-obs-addr :8080] [-obs-summary 10s] [-obs-events events.ndjson]
//	adfsim -figure ablations|adf-vs-gdf|alpha|estimators|recluster|smoothing|semantics|outages|churn
//	       [-duration 1800] [-seed 1] [-factors 1.0] ...
//
// The ablation values run the design-choice ablations — per-cluster
// versus global DTH sizing, the clustering similarity bound, the
// estimator shoot-out, the reconstruction interval, the LE smoothing
// constant, the distance-comparison semantics and the loss and churn
// models — at the -factors DTH factors (the single-factor ablations at
// the first); "ablations" runs all eight in order.
//
// With -series the per-second curves behind Figures 4, 5 and 7 are
// printed (averaged into 60-second buckets).
//
// The -obs flags turn on live introspection: -obs-addr serves /metrics
// (Prometheus text), /trace (Chrome trace_event JSON, loadable in
// about:tracing) and /debug/pprof while the campaign runs; -obs-summary
// logs a one-line progress heartbeat at the given interval; -obs-events
// streams structured NDJSON events ("-" for stderr).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/mobilegrid/adf/internal/experiment"
	"github.com/mobilegrid/adf/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adfsim: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("adfsim", flag.ContinueOnError)
	var (
		figure    = fs.String("figure", "all", "which figure to regenerate: all, table1, 4, 5, 6, 7, 8, 9, energy, percentiles, seeds, scale, ablations or one ablation (adf-vs-gdf, alpha, estimators, recluster, smoothing, semantics, outages, churn)")
		duration  = fs.Float64("duration", 1800, "simulated horizon in seconds")
		seed      = fs.Int64("seed", 1, "run seed")
		estimator = fs.String("estimator", "gap-aware", "location estimator: gap-aware, brown, single, dead-reckoning or ar1")
		factors   = fs.String("factors", "0.75,1.0,1.25", "comma-separated DTH factors")
		series    = fs.Bool("series", false, "also print the time series behind figures 4, 5 and 7")
		workers   = fs.Int("workers", 0, "campaign worker pool size: 0 = one per CPU, 1 = sequential; above 1 each run's brokers and sinks trail its world on a goroutine of their own (never changes results)")
		sharded   = fs.Int("shard-workers", 0, "pipeline partition per simulation: 0 = campus-wide, >= 1 = one shard per region on that many workers (results identical at any count >= 1; ADF clustering becomes region-scoped)")
		obsAddr   = fs.String("obs-addr", "", "serve /metrics, /trace and /debug/pprof on this address while running (empty disables)")
		obsSum    = fs.Duration("obs-summary", 0, "log a one-line progress summary at this interval (0 disables)")
		obsEvents = fs.String("obs-events", "", "write NDJSON observability events to this file (\"-\" for stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obs.SetProcName("adfsim")
	obs.RegisterStatusSection("run", func() string {
		return fmt.Sprintf("figure=%s duration=%gs seed=%d estimator=%s\n",
			*figure, *duration, *seed, *estimator)
	})

	if *obsEvents != "" {
		ew := io.Writer(os.Stderr)
		if *obsEvents != "-" {
			f, err := os.Create(*obsEvents)
			if err != nil {
				return fmt.Errorf("obs events: %w", err)
			}
			defer func() { _ = f.Close() }()
			ew = f
		}
		obs.Events.SetOutput(ew)
		obs.SetEnabled(true)
	}
	if *obsAddr != "" {
		addr, stop, err := obs.Serve(*obsAddr)
		if err != nil {
			return err
		}
		defer stop()
		log.Printf("observability on http://%s/metrics", addr)
	}
	if *obsSum > 0 {
		obs.SetEnabled(true)
		stop := obs.StartSummary(os.Stderr, *obsSum)
		defer stop()
	}

	cfg := experiment.DefaultConfig()
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.Estimator = *estimator
	cfg.Workers = *workers
	cfg.ShardWorkers = *sharded
	parsed, err := parseFactors(*factors)
	if err != nil {
		return err
	}
	cfg.DTHFactors = parsed
	if err := cfg.Validate(); err != nil {
		return err
	}

	switch *figure {
	case "table1":
		return render(w, experiment.RunTable1().Table().String())
	case "seeds":
		res, err := experiment.RunSeeds(cfg, nil)
		if err != nil {
			return err
		}
		return render(w, res.Table().String())
	case "scale":
		res, err := experiment.RunScale(cfg, nil)
		if err != nil {
			return err
		}
		return render(w, res.Table().String())
	case "ablations":
		return experiment.WriteAblations(w, cfg, experiment.Ablations)
	}
	if a, ok := experiment.LookupAblation(*figure); ok {
		return experiment.WriteAblations(w, cfg, []experiment.Ablation{a})
	}

	res, err := cfg.Run()
	if err != nil {
		return err
	}

	figures := map[string]func() string{
		"4": func() string { return experimentSeries(res.Fig4().Table().String(), *series, res.Fig4().Series) },
		"5": func() string { return experimentSeries(res.Fig5().Table().String(), *series, res.Fig5().Series) },
		"6": func() string { return res.Fig6().Table().String() },
		"7": func() string {
			fig := res.Fig7()
			out := fig.Table().String()
			if *series {
				out += formatSeries("RMSE w/o LE", fig.SeriesNoLE)
				out += formatSeries("RMSE w/ LE", fig.SeriesWithLE)
			}
			return out
		},
		"8":           func() string { return res.Fig8().Table().String() },
		"9":           func() string { return res.Fig9().Table().String() },
		"energy":      func() string { return res.EnergyBudget().Table().String() },
		"percentiles": func() string { return res.Percentiles().Table().String() },
	}

	if *figure == "all" {
		if err := render(w, experiment.RunTable1().Table().String()); err != nil {
			return err
		}
		for _, k := range []string{"4", "5", "6", "7", "8", "9", "energy", "percentiles"} {
			if err := render(w, "\n"+figures[k]()); err != nil {
				return err
			}
		}
		return nil
	}
	f, ok := figures[*figure]
	if !ok {
		return fmt.Errorf("unknown figure %q", *figure)
	}
	return render(w, f())
}

func render(w io.Writer, s string) error {
	_, err := io.WriteString(w, s)
	return err
}

func experimentSeries(table string, withSeries bool, series map[string][]float64) string {
	if !withSeries {
		return table
	}
	return table + formatSeries("per-minute series", series)
}

func formatSeries(title string, series map[string][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", title)
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-16s", name)
		for _, v := range series[name] {
			fmt.Fprintf(&b, " %7.1f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func parseFactors(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad factor %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no DTH factors in %q", s)
	}
	return out, nil
}
