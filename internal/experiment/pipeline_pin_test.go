package experiment

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/metrics"
)

// seriesBits folds a published series into one FNV-1a checksum of its
// IEEE-754 bit patterns (length included), so a single flipped bit in
// any bucket moves the pin.
func seriesBits(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(xs)))
	for _, x := range xs {
		put(math.Float64bits(x))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// quantBits renders published quantiles as bit patterns.
func quantBits(q metrics.Quantiles) string {
	return fmt.Sprintf("%016x/%016x/%016x/%016x",
		math.Float64bits(q.P50), math.Float64bits(q.P90),
		math.Float64bits(q.P99), math.Float64bits(q.Max))
}

// runBits renders every published output of one run bit for bit.
func runBits(r *Run) string {
	return fmt.Sprintf("lu=%s offered=%s rmse_nole=%s rmse_le=%s energy=%016x clusters=%d q_nole=%s q_le=%s",
		seriesBits(r.LUPerSecond.Series()), seriesBits(r.OfferedPerSecond.Series()),
		seriesBits(r.RMSENoLE.Series()), seriesBits(r.RMSEWithLE.Series()),
		math.Float64bits(r.Energy.Total()), r.FinalClusters,
		quantBits(r.QuantNoLE), quantBits(r.QuantWithLE))
}

// TestCampusPartitionPinned pins the published outputs of campus-wide
// (ShardWorkers: 0) ADF 1.00av runs at seed 1, bit for bit: the
// traffic and offered series, both RMSE series, the energy total, the
// final cluster count and both error quantile sets. The churn cases
// are the ones where the timing of a departing node's forget matters:
// the ADF's Forget leaves the node's cluster, which moves the DTH of
// every later node visited in the same tick.
func TestCampusPartitionPinned(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 1
	base.Duration = 300
	base.RNGMode = RNGKeyed

	churn := base
	churn.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.05}

	burst := base
	burst.Burst = &gateway.BurstConfig{PEnterOutage: 0.01, PExitOutage: 0.1, DropUp: 0.01, DropDown: 1}

	keyed := base
	keyed.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"plain", base,
			"lu=abf9ada865e78b07 offered=185a91abd9001523 rmse_nole=e2bfdae8c79aa24a rmse_le=129485e5ae14591c energy=40b38dc51eb851f7 clusters=10 q_nole=0000000000000000/4012b9f45a3f4eb0/403365c65fdec400/40505ee39454c74a q_le=0000000000000000/400390f0f6e4a893/40261d1fc7224f40/405631de439307de"},
		{"churn-heavy", churn,
			"lu=f9031ee5588ed431 offered=0426bc17bac7142e rmse_nole=26e539d9016026ee rmse_le=09e81eef1d3f0d95 energy=40b04c451eb851ea clusters=7 q_nole=0000000000000000/40108ebf5be1fb6a/403182ce30cea1f0/404c844b49e224d4 q_le=0000000000000000/4001e57463953186/402cd0f5b499d243/405631de439307de"},
		{"burst", burst,
			"lu=bc8cfda4bd40703d offered=4dba1ead7259f60d rmse_nole=b7449fa1f1b040b2 rmse_le=e172fb2490ec800d energy=40b12a1c28f5c298 clusters=9 q_nole=0000000000000000/401b846b8ab23609/4044a97b22a68f70/405ed19c4e35f523 q_le=0000000000000000/401424e14177a500/4045c0aaeb03c558/4069390bf46aeda8"},
		{"keyed-churn", keyed,
			"lu=7b9335fe0260d674 offered=19ccd0969d957b8f rmse_nole=08ac24cb506a0aae rmse_le=23db43fd557c5887 energy=40b53223d70a3d7e clusters=7 q_nole=0000000000000000/4010417c0dd94240/403221a91dcca590/40505ee39454c74a q_le=0000000000000000/40012f1db9ac9940/402a32223e64f061/405631de439307de"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := tc.cfg.runFilter(tc.cfg.adfFactory(1.0))
			if err != nil {
				t.Fatal(err)
			}
			if got := runBits(run); got != tc.want {
				t.Errorf("published outputs moved:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}
