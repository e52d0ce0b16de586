// Command rtiserver runs a standalone TCP Run-Time Infrastructure for
// distributed mobile-grid federations. Federates connect with the hla
// package's TCP client (see examples/distributed).
//
// Usage:
//
//	rtiserver [-addr 127.0.0.1:4500] [-federations mobilegrid]
//	          [-obs-addr :8080] [-obs-events events.ndjson]
//	          [-obs-trace trace.json]
//
// With -obs-addr the server exposes /metrics (Prometheus text),
// /trace (Chrome trace_event JSON), /healthz, /statusz (federation
// roster, per-federate lag, tick watermark) and /debug/pprof on that
// address. With -obs-events discrete occurrences (federate joins,
// resigns, the federates still connected at shutdown) stream to the
// given NDJSON file, or to stderr with "-". With -obs-trace a Chrome
// trace_event file including RTI request spans is written at
// shutdown; feed it to cmd/adfobs together with the federates' traces
// for a single cross-process view.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/mobilegrid/adf/internal/hla"
	"github.com/mobilegrid/adf/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtiserver: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// obsConfig carries the observability flags from setup to run, keeping
// setup's signature test-friendly.
var obsConfig struct {
	addr   string
	events string
	trace  string
}

// setup parses flags, creates the federations and starts listening. It
// is separated from run so tests can exercise it without signal
// handling.
func setup(args []string) (*hla.Server, error) {
	fs := flag.NewFlagSet("rtiserver", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:4500", "listen address")
		federations = fs.String("federations", "mobilegrid", "comma-separated federation executions to create")
		obsAddr     = fs.String("obs-addr", "", "serve /metrics, /trace, /healthz, /statusz and /debug/pprof on this address (empty disables)")
		obsEvents   = fs.String("obs-events", "", "write NDJSON observability events to this file (\"-\" for stderr)")
		obsTrace    = fs.String("obs-trace", "", "write a Chrome trace_event JSON file (with RTI request spans) at shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	obsConfig.addr = *obsAddr
	obsConfig.events = *obsEvents
	obsConfig.trace = *obsTrace
	obs.SetProcName("rtiserver")

	rti := hla.NewRTI()
	created := 0
	for _, name := range strings.Split(*federations, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := rti.CreateFederation(name); err != nil {
			return nil, err
		}
		log.Printf("federation %q created", name)
		created++
	}
	if created == 0 {
		return nil, fmt.Errorf("no federations in %q", *federations)
	}

	return hla.NewServer(rti, *addr)
}

// federationStatus renders the /statusz "federation" section: one line
// per federation with its tick watermark, then one indented line per
// joined federate with its logical time, lag behind the watermark
// leader, pending advance request and TSO queue depth.
func federationStatus(infos []hla.FederationInfo) string {
	var b strings.Builder
	for _, fi := range infos {
		fmt.Fprintf(&b, "%s: federates=%d watermark=%.3f\n", fi.Name, len(fi.Detail), fi.Watermark)
		lead := fi.Watermark
		for _, fd := range fi.Detail {
			if fd.Time > lead {
				lead = fd.Time
			}
		}
		for _, fd := range fi.Detail {
			fmt.Fprintf(&b, "  %s: time=%.3f lag=%.3f lookahead=%.3f tso=%d",
				fd.Name, fd.Time, lead-fd.Time, fd.Lookahead, fd.QueuedTSO)
			if fd.Pending {
				fmt.Fprintf(&b, " pending_tar=%.3f", fd.RequestedTime)
			}
			b.WriteByte('\n')
		}
	}
	if b.Len() == 0 {
		return "no federations\n"
	}
	return b.String()
}

func run(args []string) error {
	srv, err := setup(args)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", srv.Addr())

	if obsConfig.events != "" {
		w := os.Stderr
		if obsConfig.events != "-" {
			f, err := os.Create(obsConfig.events)
			if err != nil {
				return fmt.Errorf("obs events: %w", err)
			}
			defer func() { _ = f.Close() }()
			w = f
		}
		obs.Events.SetOutput(w)
	}
	if obsConfig.trace != "" {
		obs.SetEnabled(true)
	}
	obs.RegisterStatusSection("federation", func() string {
		return federationStatus(srv.RTI().Snapshot())
	})
	if obsConfig.addr != "" {
		addr, stop, err := obs.Serve(obsConfig.addr)
		if err != nil {
			return err
		}
		defer stop()
		log.Printf("observability on http://%s/metrics", addr)
	}
	if obsConfig.trace != "" {
		defer func() {
			f, err := os.Create(obsConfig.trace)
			if err != nil {
				log.Printf("obs trace: %v", err)
				return
			}
			if err := obs.WriteChromeTrace(f); err != nil {
				log.Printf("obs trace: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("obs trace: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	//adf:allow goroleak — accept loop runs until Shutdown closes the listener; the buffered errc send never blocks
	go func() { errc <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v, shutting down gracefully", s)
		// Record who is still connected before the teardown resigns them:
		// operators diffing an unclean deploy want the roster in the logs
		// and the event stream.
		for _, fi := range srv.RTI().Snapshot() {
			for _, name := range fi.Federates {
				log.Printf("federation %q: federate %q still joined", fi.Name, name)
				obs.Events.Emit("federate_remaining",
					obs.S("federation", fi.Name), obs.S("name", name))
			}
		}
		return srv.Shutdown()
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}
}
