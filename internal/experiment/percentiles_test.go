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
// seed-1 campaigns, the classic pipeline and the keyed two-worker
// sharded pipeline with churn, bit for bit. The goldens are nearest-rank
// over a full sort of every recorded error sample.
func TestPercentilesPinned(t *testing.T) {
	classic := shortConfig()
	classic.Seed = 1

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
			"adf(0.75av) le=false p50=0000000000000000 p90=3ff772e3ccf3c7d6 p99=401c42607bee9c32 max=403961804dce9af6",
			"adf(0.75av) le=true p50=0000000000000000 p90=3fe9ae9db0d81b80 p99=4014b79c31cd62c0 max=40459ed3a0f71fa4",
			"adf(1.00av) le=false p50=0000000000000000 p90=40128297c6b92a33 p99=4031ec433e88f4d0 max=405081175fd66816",
			"adf(1.00av) le=true p50=0000000000000000 p90=400296e5f1027cde p99=40274ac7c3749246 max=4058e260975fc204",
			"adf(1.25av) le=false p50=3fe2d415b730d6dc p90=402714affdd65dc4 p99=404be5b0e4cca948 max=405da8dcdb1ee19f",
			"adf(1.25av) le=true p50=3fc0872a2f849400 p90=401acae3f92a4fc0 p99=404a0932d333fa88 max=4069924a420c0fe0",
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
			res, err := tc.cfg.RunUncached()
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
// memoized campaign from several goroutines at once. Percentiles must
// only read the Run, so the race detector stays quiet and every reader
// sees the same rows.
func TestPercentilesConcurrentReads(t *testing.T) {
	ResetCampaignCache()
	defer ResetCampaignCache()

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
