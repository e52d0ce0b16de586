package experiment

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// percentileBits renders each published percentile row with its four
// quantiles as IEEE-754 bit patterns, so a comparison is exact to the
// last bit rather than to the two decimals the table prints.
func percentileBits(p PercentilesResult) []string {
	out := make([]string, len(p.Rows))
	for i, r := range p.Rows {
		out[i] = fmt.Sprintf("%s le=%v p50=%016x p90=%016x p99=%016x max=%016x",
			r.Name, r.WithLE, math.Float64bits(r.P50), math.Float64bits(r.P90),
			math.Float64bits(r.P99), math.Float64bits(r.Max))
	}
	return out
}

// TestPercentilesPinned pins the published error quantiles of two short
// seed-1 campaigns, the campus partition and the two-worker region
// partition with churn, bit for bit. The goldens are nearest-rank
// over a full sort of every recorded error sample.
func TestPercentilesPinned(t *testing.T) {
	classic := shortConfig()
	classic.Seed = 1
	classic.RNGMode = RNGKeyed

	keyed := DefaultConfig()
	keyed.Seed = 1
	keyed.Duration = 200
	keyed.RNGMode = RNGKeyed
	keyed.ShardWorkers = 2
	keyed.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}

	for _, tc := range []struct {
		name string
		cfg  Config
		want []string
	}{
		{"classic", classic, []string{
			"adf(0.75av) le=false p50=0000000000000000 p90=3ff81c19611f2880 p99=401c8ea62e61abc0 max=40438f3a1e8c1210",
			"adf(0.75av) le=true p50=0000000000000000 p90=3fea263d3655a4ab p99=40148e8e9d6ff2ea max=404176fd4e2a3018",
			"adf(1.00av) le=false p50=0000000000000000 p90=4012b9f45a3f4eb0 p99=403365c65fdec400 max=40505ee39454c74a",
			"adf(1.00av) le=true p50=0000000000000000 p90=400390f0f6e4a893 p99=40261d1fc7224f40 max=405631de439307de",
			"adf(1.25av) le=false p50=3fe37c6a5a182735 p90=40276d24f4389fe0 p99=404d2acb4e380c80 max=40611c295177b519",
			"adf(1.25av) le=true p50=3fc090f4b3a546ea p90=401e11a989e25340 p99=40496f57097c6c3e max=4069998fdab288d8",
		}},
		{"keyed-sharded-churn", keyed, []string{
			"adf(0.75av) le=false p50=0000000000000000 p90=3ff363cad8c77580 p99=401c77ba5f29cb80 max=40438f3a1e8c1210",
			"adf(0.75av) le=true p50=0000000000000000 p90=3fe69b52afce5b4e p99=4014abed730f9580 max=404223103f174f78",
			"adf(1.00av) le=false p50=0000000000000000 p90=400e3ba4376f05c0 p99=40316b134e35b240 max=404c4cbe91510e58",
			"adf(1.00av) le=true p50=0000000000000000 p90=3ffe4b1a4ca00e1f p99=4026211a4fb066a0 max=40563a27c39b7e56",
			"adf(1.25av) le=false p50=0000000000000000 p90=4023c3ae738e1ca0 p99=404ac37372626c14 max=40619639b10cf599",
			"adf(1.25av) le=true p50=0000000000000000 p90=40163ecaa92f7240 p99=404793116dafb4d4 max=4071e5f3dd254e81",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.cfg.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := percentileBits(res.Percentiles())
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("published percentiles moved:\ngot  %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestPercentilesConcurrentReads reads the published percentiles of one
// campaign from several goroutines at once. Percentiles must
// only read the Run, so the race detector stays quiet and every reader
// sees the same rows.
func TestPercentilesConcurrentReads(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 150
	res, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	rows := make([][]string, readers)
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i] = percentileBits(res.Percentiles())
		}()
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if !reflect.DeepEqual(rows[i], rows[0]) {
			t.Errorf("reader %d saw %q, reader 0 saw %q", i, rows[i], rows[0])
		}
	}
}
