package cluster_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/cluster"
)

// TestCheckSumsAfterEveryChange holds the running sums to CheckSums'
// recompute after every membership change — each Assign (a remove and
// an add), Remove and rebuild of a seeded random sequence over a
// capped and an uncapped clustering — not only once per tick.
func TestCheckSumsAfterEveryChange(t *testing.T) {
	for _, cfg := range []cluster.Config{
		{Alpha: 1.0, HeadingWeight: 0.25},
		{Alpha: 0.3, HeadingWeight: 1, MaxClusters: 4},
	} {
		m, err := cluster.NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		feature := func() cluster.Feature {
			return cluster.Feature{Speed: 5 * rng.Float64(), Heading: 2 * math.Pi * rng.Float64()}
		}
		for op := 0; op < 3000; op++ {
			id := cluster.NodeID(rng.Intn(40))
			switch r := rng.Intn(100); {
			case r < 70:
				m.Assign(id, feature())
			case r < 98:
				m.Remove(id)
			default:
				ids := []cluster.NodeID{0, 3, 5, 8, 13, 21, 34}
				feats := make([]cluster.Feature, len(ids))
				for i := range feats {
					feats[i] = feature()
				}
				m.RebuildOrdered(ids, feats)
			}
			if err := m.CheckSums(); err != nil {
				t.Fatalf("%+v, op %d: %v", cfg, op, err)
			}
		}
	}
}

// TestCheckSumsCatchesDrift corrupts a cluster's running speed sum and
// expects CheckSums to report it, and to keep reporting it after the
// next membership change.
func TestCheckSumsCatchesDrift(t *testing.T) {
	m, err := cluster.NewManager(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Assign(1, cluster.Feature{Speed: 1.0, Heading: 0.5})
	m.Assign(2, cluster.Feature{Speed: 1.2, Heading: 0.6})
	if err := m.CheckSums(); err != nil {
		t.Fatalf("healthy clustering: %v", err)
	}
	m.DriftSpeedSum(1, 0.5)
	for _, when := range []string{"after the drift", "after the next Assign"} {
		err := m.CheckSums()
		if err == nil || !strings.Contains(err.Error(), "speed sum") {
			t.Errorf("%s: CheckSums = %v, want a speed sum error", when, err)
		}
		m.Assign(3, cluster.Feature{Speed: 1.1, Heading: 0.55})
	}
}
