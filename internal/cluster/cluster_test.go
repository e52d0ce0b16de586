package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func mustManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"default ok", DefaultConfig(), false},
		{"zero alpha", Config{Alpha: 0}, true},
		{"negative alpha", Config{Alpha: -1}, true},
		{"negative heading weight", Config{Alpha: 1, HeadingWeight: -0.1}, true},
		{"negative max clusters", Config{Alpha: 1, MaxClusters: -1}, true},
		{"speed only", Config{Alpha: 0.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAssignGroupsSimilarNodes(t *testing.T) {
	m := mustManager(t, Config{Alpha: 1.0})
	// Three walkers near 1 m/s, two vehicles near 8 m/s.
	walkers := []Feature{{Speed: 0.9}, {Speed: 1.1}, {Speed: 1.0}}
	vehicles := []Feature{{Speed: 8.2}, {Speed: 7.8}}
	var walkerCluster, vehicleCluster ID
	for i, f := range walkers {
		cid := m.Assign(NodeID(i), f)
		if i == 0 {
			walkerCluster = cid
		} else if cid != walkerCluster {
			t.Fatalf("walker %d landed in cluster %d, want %d", i, cid, walkerCluster)
		}
	}
	for i, f := range vehicles {
		cid := m.Assign(NodeID(100+i), f)
		if i == 0 {
			vehicleCluster = cid
		} else if cid != vehicleCluster {
			t.Fatalf("vehicle %d landed in cluster %d, want %d", i, cid, vehicleCluster)
		}
	}
	if walkerCluster == vehicleCluster {
		t.Fatal("walkers and vehicles merged into one cluster")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	ws, ok := m.MeanSpeedOf(0)
	if !ok || math.Abs(ws-1.0) > 1e-9 {
		t.Errorf("walker cluster mean speed = %v, want 1.0", ws)
	}
	vs, _ := m.MeanSpeedOf(100)
	if math.Abs(vs-8.0) > 1e-9 {
		t.Errorf("vehicle cluster mean speed = %v, want 8.0", vs)
	}
}

func TestHeadingSeparatesClusters(t *testing.T) {
	// Same speed, opposite directions, with a heading weight that makes
	// the angular difference exceed alpha.
	m := mustManager(t, Config{Alpha: 0.5, HeadingWeight: 1.0})
	a := m.Assign(1, Feature{Speed: 1, Heading: 0})
	b := m.Assign(2, Feature{Speed: 1, Heading: math.Pi})
	if a == b {
		t.Error("opposite headings merged despite heading weight")
	}
	// Without heading weight they merge.
	m2 := mustManager(t, Config{Alpha: 0.5})
	a2 := m2.Assign(1, Feature{Speed: 1, Heading: 0})
	b2 := m2.Assign(2, Feature{Speed: 1, Heading: math.Pi})
	if a2 != b2 {
		t.Error("speed-only clustering separated equal speeds")
	}
}

func TestReassignMovesNode(t *testing.T) {
	m := mustManager(t, Config{Alpha: 1.0})
	m.Assign(1, Feature{Speed: 1})
	m.Assign(2, Feature{Speed: 1.2})
	first, _ := m.ClusterOf(1)
	// Node 1 accelerates to vehicle speed: must leave the walking cluster.
	second := m.Assign(1, Feature{Speed: 9})
	if second == first {
		t.Fatal("node did not move to a new cluster after speed change")
	}
	if got := m.Cluster(first).Size(); got != 1 {
		t.Errorf("old cluster size = %d, want 1", got)
	}
	ms, _ := m.MeanSpeedOf(2)
	if math.Abs(ms-1.2) > 1e-9 {
		t.Errorf("old cluster mean corrupted: %v", ms)
	}
}

func TestRemove(t *testing.T) {
	m := mustManager(t, Config{Alpha: 1.0})
	m.Assign(1, Feature{Speed: 1})
	if !m.Remove(1) {
		t.Error("Remove returned false for present node")
	}
	if m.Remove(1) {
		t.Error("second Remove returned true")
	}
	if m.Len() != 0 {
		t.Errorf("empty cluster not dropped: Len = %d", m.Len())
	}
	if _, ok := m.ClusterOf(1); ok {
		t.Error("ClusterOf returned stale membership")
	}
	if _, ok := m.MeanSpeedOf(1); ok {
		t.Error("MeanSpeedOf returned stale value")
	}
}

func TestMaxClustersCap(t *testing.T) {
	m := mustManager(t, Config{Alpha: 0.1, MaxClusters: 2})
	m.Assign(1, Feature{Speed: 1})
	m.Assign(2, Feature{Speed: 5})
	// Far from both clusters, but the cap forces it into the nearest.
	cid := m.Assign(3, Feature{Speed: 100})
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (capped)", m.Len())
	}
	want, _ := m.ClusterOf(2) // 100 is nearer to 5 than to 1
	if cid != want {
		t.Errorf("capped assignment went to %d, want %d", cid, want)
	}
}

func TestRebuildDeterministicAndComplete(t *testing.T) {
	ids := []NodeID{1, 2, 3, 4, 5}
	features := []Feature{
		{Speed: 0.5}, {Speed: 0.6}, {Speed: 4.0},
		{Speed: 4.2}, {Speed: 9.0},
	}
	m1 := mustManager(t, Config{Alpha: 1.0})
	m2 := mustManager(t, Config{Alpha: 1.0})
	n1 := m1.RebuildOrdered(ids, features)
	n2 := m2.RebuildOrdered(ids, features)
	if n1 != n2 {
		t.Fatalf("rebuild cluster counts differ: %d vs %d", n1, n2)
	}
	if n1 != 3 {
		t.Errorf("clusters = %d, want 3", n1)
	}
	if m1.NodeCount() != len(features) {
		t.Errorf("NodeCount = %d, want %d", m1.NodeCount(), len(features))
	}
	for _, id := range ids {
		c1, ok1 := m1.ClusterOf(id)
		c2, ok2 := m2.ClusterOf(id)
		if !ok1 || !ok2 || c1 != c2 {
			t.Errorf("node %d membership differs across identical rebuilds", id)
		}
	}
}

func TestClustersOrderedAndMembersSorted(t *testing.T) {
	m := mustManager(t, Config{Alpha: 0.5})
	m.Assign(3, Feature{Speed: 1})
	m.Assign(1, Feature{Speed: 1.1})
	m.Assign(2, Feature{Speed: 20})
	cs := m.Clusters()
	if len(cs) != 2 {
		t.Fatalf("clusters = %d, want 2", len(cs))
	}
	if cs[0].ID() >= cs[1].ID() {
		t.Error("Clusters not ordered by ID")
	}
	members := cs[0].Members()
	if len(members) != 2 || members[0] != 1 || members[1] != 3 {
		t.Errorf("Members = %v, want [1 3]", members)
	}
}

func TestMeanHeading(t *testing.T) {
	m := mustManager(t, Config{Alpha: 5, HeadingWeight: 0.1})
	m.Assign(1, Feature{Speed: 1, Heading: 0.1})
	m.Assign(2, Feature{Speed: 1, Heading: 2*math.Pi - 0.1})
	c := m.Clusters()[0]
	// Circular mean of ±0.1 around zero is zero, not π.
	if got := c.MeanHeading(); got > 0.01 && got < 2*math.Pi-0.01 {
		t.Errorf("MeanHeading = %v, want ~0", got)
	}
	empty := &Cluster{head: noMember}
	if empty.MeanSpeed() != 0 || empty.MeanHeading() != 0 {
		t.Error("empty cluster stats not zero")
	}
}

func TestInvariantEveryNodeInExactlyOneCluster(t *testing.T) {
	// Property: after arbitrary assign/remove sequences, membership maps
	// stay consistent: every tracked node appears in exactly one cluster
	// and cluster sizes sum to the node count.
	type op struct {
		ID     uint8
		Speed  float64
		Remove bool
	}
	f := func(ops []op) bool {
		m, err := NewManager(Config{Alpha: 1.0, HeadingWeight: 0.3})
		if err != nil {
			return false
		}
		for _, o := range ops {
			if math.IsNaN(o.Speed) || math.IsInf(o.Speed, 0) {
				continue
			}
			id := NodeID(o.ID % 16)
			if o.Remove {
				m.Remove(id)
			} else {
				m.Assign(id, Feature{Speed: math.Abs(math.Mod(o.Speed, 50))})
			}
		}
		total := 0
		seen := map[NodeID]int{}
		for _, c := range m.Clusters() {
			if c.Size() == 0 {
				return false // empty clusters must be dropped
			}
			total += c.Size()
			for _, id := range c.Members() {
				seen[id]++
			}
		}
		if total != m.NodeCount() {
			return false
		}
		for id, count := range seen {
			if count != 1 {
				return false
			}
			if cid, ok := m.ClusterOf(id); !ok || m.Cluster(cid) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInvariantJoinWithinAlphaOfRepresentative(t *testing.T) {
	// At assignment time the node is within alpha of the representative it
	// joined (unless it founded the cluster or the cap forced it).
	m := mustManager(t, Config{Alpha: 2.0})
	speeds := []float64{1, 1.5, 2, 9, 9.5, 4.5, 0.2}
	for i, s := range speeds {
		before := map[ID]float64{}
		for _, c := range m.Clusters() {
			before[c.ID()] = c.MeanSpeed()
		}
		cid := m.Assign(NodeID(i), Feature{Speed: s})
		if mean, existed := before[cid]; existed {
			if math.Abs(s-mean) >= 2.0 {
				t.Errorf("node %d (speed %v) joined cluster with mean %v beyond alpha", i, s, mean)
			}
		}
	}
}

func TestMeanSpeedMatchesMembers(t *testing.T) {
	// Running sums must equal recomputed means after churn.
	m := mustManager(t, Config{Alpha: 1.0})
	speeds := []float64{1, 1.2, 0.8, 1.1, 0.9}
	for i, s := range speeds {
		m.Assign(NodeID(i), Feature{Speed: s})
	}
	m.Remove(2)
	m.Assign(0, Feature{Speed: 1.05})
	for _, c := range m.Clusters() {
		var sum float64
		for _, id := range c.Members() {
			// reconstruct from assignments above
			switch id {
			case 0:
				sum += 1.05
			case 1:
				sum += 1.2
			case 3:
				sum += 1.1
			case 4:
				sum += 0.9
			}
		}
		want := sum / float64(c.Size())
		if math.Abs(c.MeanSpeed()-want) > 1e-9 {
			t.Errorf("cluster %d mean %v, want %v", c.ID(), c.MeanSpeed(), want)
		}
	}
}
