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
// final cluster count and both error quantile sets. The sequential
// churn case is the one where the timing of a departing node's forget
// matters: the ADF's Forget leaves the node's cluster, which moves the
// DTH of every later node visited in the same tick.
func TestCampusPartitionPinned(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 1
	base.Duration = 300

	churn := base
	churn.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.05}

	burst := base
	burst.Burst = &gateway.BurstConfig{PEnterOutage: 0.01, PExitOutage: 0.1, DropUp: 0.01, DropDown: 1}

	keyed := base
	keyed.RNGMode = RNGKeyed
	keyed.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"sequential", base,
			"lu=5dbf7641bf24cd84 offered=0962b0def3df3ca3 rmse_nole=20d2a325d8bf0229 rmse_le=f4b392ca9de2e9ed energy=40b390b0a3d70a4a clusters=8 q_nole=0000000000000000/40128297c6b92a33/4031ec433e88f4d0/405081175fd66816 q_le=0000000000000000/400296e5f1027cde/40274ac7c3749246/4058e260975fc204"},
		{"sequential-churn-heavy", churn,
			"lu=6e5ece0a63599c53 offered=d0ae002d1af0c30d rmse_nole=c7a4d26492859fda rmse_le=c1971dad5fa0c43e energy=40b03ab0a3d70a3e clusters=7 q_nole=0000000000000000/400f0f68ecedbb00/40302693fdbc3da0/4052322dffeb8f82 q_le=0000000000000000/3ffef5f69c0658c1/402a6b0008937040/4052754f653f0567"},
		{"burst", burst,
			"lu=2660c5a5ecd34b26 offered=ee5a7838be8556da rmse_nole=6ad68733f50f6802 rmse_le=4cfd949b7e3f4762 energy=40b29ca8f5c28f67 clusters=9 q_nole=0000000000000000/4015f60e0448c8d1/403787a0f35144bc/405c55923c148406 q_le=0000000000000000/400985bb3bf8a107/40354a2008896380/4059054e2848f098"},
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
