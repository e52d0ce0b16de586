package experiment

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/gateway"
)

// classified is the shape of a configuration error: it names the
// package that rejected the value.
var classified = regexp.MustCompile(`^[a-z]+: `)

// FuzzRun fuzzes small campaign configurations: seed, population (0,
// 1 or 2 nodes per group, 0 meaning the paper's 5), a horizon of at
// most 60 s, two DTH factors, the drop probability, a burst outage
// rate, churn and ShardWorkers 0, 1 or 2. Each input must either be
// rejected by Config.Validate with a classified error, which the run
// must return too, or run its campaign pass in tick lockstep at two or
// three schedules — inline and trailing lane stages, and in the region
// partition both shard worker counts — with the run oracle holding and
// the state digests equal at every tick. The seed corpus lives in
// testdata/fuzz/FuzzRun, so `go test` replays it; fuzz longer with
// `go test -run '^$' -fuzz FuzzRun -fuzztime 60s -parallel 2
// ./internal/experiment`.
func FuzzRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, perGroup uint8, duration, factorA, factorB,
		drop, burst, leave, rejoin float64, shardWorkers uint8) {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.PerGroup = int(perGroup % 3)
		if duration > 60 {
			duration = math.Mod(duration, 60)
		}
		cfg.Duration = duration
		cfg.DTHFactors = []float64{factorA, factorB}
		cfg.DropProb = drop
		if burst != 0 {
			cfg.Burst = &gateway.BurstConfig{PEnterOutage: burst, PExitOutage: 0.2, DropUp: drop, DropDown: 1}
		}
		if leave != 0 || rejoin != 0 {
			cfg.Churn = &ChurnConfig{LeaveProb: leave, RejoinProb: rejoin}
		}
		cfg.ShardWorkers = int(shardWorkers % 3)
		cfgs := []Config{cfg, cfg}
		cfgs[0].Workers, cfgs[1].Workers = 1, 2
		if cfg.ShardWorkers > 0 {
			other := cfgs[0]
			other.ShardWorkers = 3 - cfg.ShardWorkers
			cfgs = append(cfgs, other)
		}

		_, ticks, err := lockstep(cfgs)
		if verr := cfg.Validate(); verr != nil {
			if !classified.MatchString(verr.Error()) {
				t.Fatalf("unclassified Validate error %q", verr)
			}
			if err == nil || !strings.HasSuffix(err.Error(), verr.Error()) {
				t.Fatalf("Validate rejects the config (%v), the run returned %v", verr, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := engine.Ticks(cfg.SamplePeriod, cfg.Duration); ticks != want {
			t.Fatalf("checked %d ticks, want %d", ticks, want)
		}
	})
}
