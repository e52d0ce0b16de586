package core

import (
	"fmt"
	"sort"

	"github.com/mobilegrid/adf/internal/cluster"
	"github.com/mobilegrid/adf/internal/dense"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/obs"
)

// Config parameterises the Adaptive Distance Filter.
type Config struct {
	// DTHFactor scales the per-cluster mean speed into a distance
	// threshold: DTH = DTHFactor × meanSpeed × SamplePeriod. The paper
	// evaluates 0.75, 1.0 and 1.25.
	DTHFactor float64
	// SamplePeriod is the LU sampling interval in seconds (1 s in the
	// paper's experiments).
	SamplePeriod float64
	// MinDTH is a floor in metres so clusters of near-stationary nodes do
	// not degenerate to a zero threshold. Stop-state nodes, which the
	// paper excludes from clustering, also use this floor.
	MinDTH float64
	// ReclusterInterval is how often (virtual seconds) the ADF rebuilds
	// the clustering from fresh features — the paper's step (6). Zero
	// disables periodic reconstruction; membership is then only adjusted
	// when a node's own pattern changes.
	ReclusterInterval float64
	// Semantics selects the distance comparison: filter.PerStep (the
	// paper's "moving distance" per sampling period, the experiment
	// default) or filter.Anchored (displacement since last transmission,
	// which bounds the broker's error by the DTH).
	Semantics filter.Semantics
	// Classifier tunes the Figure-2 mobility classification.
	Classifier ClassifierConfig
	// Cluster tunes the sequential clustering.
	Cluster cluster.Config
}

// DefaultConfig returns the configuration used by the paper's experiments
// with DTH factor 1.0.
func DefaultConfig() Config {
	return Config{
		DTHFactor:         1.0,
		SamplePeriod:      1.0,
		MinDTH:            0.25,
		ReclusterInterval: 10,
		Semantics:         filter.PerStep,
		Classifier:        DefaultClassifierConfig(),
		Cluster:           cluster.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DTHFactor <= 0 {
		return fmt.Errorf("core: DTHFactor must be positive, got %v", c.DTHFactor)
	}
	if c.SamplePeriod <= 0 {
		return fmt.Errorf("core: SamplePeriod must be positive, got %v", c.SamplePeriod)
	}
	if c.MinDTH < 0 {
		return fmt.Errorf("core: MinDTH must be non-negative, got %v", c.MinDTH)
	}
	if c.ReclusterInterval < 0 {
		return fmt.Errorf("core: ReclusterInterval must be non-negative, got %v", c.ReclusterInterval)
	}
	if err := c.Semantics.Validate(); err != nil {
		return err
	}
	if err := c.Classifier.Validate(); err != nil {
		return err
	}
	return c.Cluster.Validate()
}

// nodeState is the ADF's per-node bookkeeping, held by value in the
// ADF's compact node store with the classifier embedded.
type nodeState struct {
	cls Classifier
	// anchor is the distance-comparison reference: the last transmitted
	// location (Anchored) or the previous sample (PerStep).
	anchor   geo.Point
	pattern  MobilityPattern
	seenOnce bool
	// live is false once the node is forgotten; a rejoin revives the
	// slot with its classifier ring intact.
	live bool
}

// forget resets the slot in place for a later rejoin, keeping the
// classifier's ring.
func (st *nodeState) forget() {
	cls := st.cls
	cls.reset()
	*st = nodeState{cls: cls}
}

// ADF is the Adaptive Distance Filter of section 3.2. It implements
// filter.Filter so experiments can swap it against the baselines.
//
// The six-step process of section 3.4 maps onto the implementation as
// follows: steps (1)–(2), initial pattern recognition and cluster
// construction, happen as each node's classifier window fills; steps
// (3)–(5), location acquisition, distance filtering and transmission,
// happen in Offer; step (6), cluster reconstruction, runs every
// ReclusterInterval of virtual time.
type ADF struct {
	cfg Config
	// index maps a node ID to its slot in nodes. Slots are handed out in
	// first-offer order — the order the owning shard visits its nodes —
	// so the per-tick walk over node state is sequential, and the store
	// grows with the nodes this instance has seen, not with the ID span.
	index dense.Index
	nodes []nodeState
	// live counts the slots of nodes not forgotten.
	live     int
	clusters *cluster.Manager
	// lastRebuild is the virtual time of the last cluster reconstruction.
	lastRebuild float64
	started     bool
	// featIDs/featVals are the reusable parallel feature buffers for
	// rebuild — filled in ascending node-ID order straight off the node
	// index, so periodic reconstruction neither sorts nor allocates once
	// their capacity is established.
	featIDs  []cluster.NodeID
	featVals []cluster.Feature
}

var _ filter.Filter = (*ADF)(nil)

// New returns an Adaptive Distance Filter with the given configuration.
func New(cfg Config) (*ADF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cm, err := cluster.NewManager(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &ADF{cfg: cfg, clusters: cm}, nil
}

// Name implements filter.Filter.
func (a *ADF) Name() string {
	return fmt.Sprintf("adf(%.2fav)", a.cfg.DTHFactor)
}

// Config returns the filter's configuration.
func (a *ADF) Config() Config { return a.cfg }

// Offer implements filter.Filter: it feeds the node's classifier, keeps
// the clustering current, sizes the node's DTH from its cluster's mean
// speed, and applies the distance filter.
//
//adf:hotpath
func (a *ADF) Offer(lu filter.LU) filter.Decision {
	st := a.state(lu.Node)
	st.cls.Observe(lu.Time, lu.Pos)
	a.maintainClustering(lu.Time, lu.Node, st)

	dth := a.dthFor(lu.Node, st)

	if !st.seenOnce {
		st.seenOnce = true
		st.anchor = lu.Pos
		return filter.Decision{Transmit: true, Threshold: dth}
	}
	dist := lu.Pos.Dist(st.anchor)
	transmit := dist >= dth
	if transmit || a.cfg.Semantics == filter.PerStep {
		st.anchor = lu.Pos
	}
	return filter.Decision{Transmit: transmit, Distance: dist, Threshold: dth}
}

// state returns the node's live slot, reviving a forgotten one or
// giving a first-seen node a new slot. The pointer is valid until the
// next birth.
//
//adf:hotpath
func (a *ADF) state(node int) *nodeState {
	slot, ok := a.index.Get(node)
	if !ok {
		//adf:allow hotpath — first sight of a node: one classifier ring
		// plus amortised growth of the slot store; every later tick,
		// rejoins included, takes the index lookup above.
		slot = a.birth(node)
	}
	st := &a.nodes[slot]
	if !st.live {
		st.live = true
		a.live++
		obs.PatternNodes(int(PatternUnknown)).Add(1)
	}
	return st
}

// birth appends a slot for a first-seen node and returns its number.
func (a *ADF) birth(node int) int {
	slot := len(a.nodes)
	a.index.Put(node, slot)
	a.nodes = append(a.nodes, nodeState{})
	a.nodes[slot].cls.init(&a.cfg.Classifier)
	return slot
}

// maintainClustering updates the node's pattern and membership, and runs
// the periodic reconstruction.
//
//adf:hotpath
func (a *ADF) maintainClustering(now float64, node int, st *nodeState) {
	if !st.cls.Ready() {
		return
	}
	prev := st.pattern
	st.pattern = st.cls.Pattern()
	if prev != st.pattern {
		// Keep the per-pattern population gauges current. Gauges are
		// ungated atomics; transitions are rare (a classification
		// change, not a tick), so this costs nothing on the hot path.
		obs.PatternNodes(int(prev)).Add(-1)
		obs.PatternNodes(int(st.pattern)).Add(1)
	}

	nid := cluster.NodeID(node)
	switch {
	case st.pattern == PatternStop:
		// The paper excludes Stop-state nodes from clustering.
		a.clusters.Remove(nid)
	case prev != st.pattern:
		// Pattern changed (or was just learned): (re-)assign immediately.
		a.clusters.Assign(nid, st.cls.Feature())
	default:
		if _, clustered := a.clusters.ClusterOf(nid); !clustered {
			a.clusters.Assign(nid, st.cls.Feature())
		}
	}

	if !a.started {
		a.started = true
		a.lastRebuild = now
		return
	}
	if a.cfg.ReclusterInterval > 0 && now-a.lastRebuild >= a.cfg.ReclusterInterval {
		//adf:allow hotpath — periodic reclustering (the paper's step 6)
		// runs once per ReclusterInterval, not per tick: a declared cold
		// path, so the call-graph walk stops here.
		a.rebuild(now)
		a.lastRebuild = now
	}
}

// rebuild re-runs the sequential clustering over every non-stop node's
// current feature (the paper's step 6) and records the DTH-recompute
// event: each reconstruction re-derives every cluster's mean speed and
// therefore every member's distance threshold.
func (a *ADF) rebuild(now float64) {
	a.featIDs = a.featIDs[:0]
	a.featVals = a.featVals[:0]
	// The index visits every ID ascending — negative and far-sparse IDs
	// included — which is the order RebuildOrdered requires.
	a.index.Range(func(id, slot int) bool {
		if st := &a.nodes[slot]; st.live && st.cls.Ready() && st.pattern != PatternStop {
			a.featIDs = append(a.featIDs, cluster.NodeID(id))
			a.featVals = append(a.featVals, st.cls.Feature())
		}
		return true
	})
	formed := a.clusters.RebuildOrdered(a.featIDs, a.featVals)
	obs.Reclusters.Inc()
	if obs.Events.On() {
		obs.Events.Emit("recluster",
			obs.F("t", now), obs.F("nodes", float64(len(a.featIDs))),
			obs.F("clusters", float64(formed)))
	}
}

// dthFor sizes the node's distance threshold. Until the node's window
// fills the ADF behaves like the ideal LU (threshold 0 transmits
// everything), matching the paper's observation that "the number of LUs of
// the ADF is similar to the ideal LU at initial".
//
//adf:hotpath
func (a *ADF) dthFor(node int, st *nodeState) float64 {
	if !st.cls.Ready() {
		return 0
	}
	mean, clustered := a.clusters.MeanSpeedOf(cluster.NodeID(node))
	if !clustered {
		// Stop-state node: only genuine movement past the floor reports.
		return a.cfg.MinDTH
	}
	dth := a.cfg.DTHFactor * mean * a.cfg.SamplePeriod
	if dth < a.cfg.MinDTH {
		dth = a.cfg.MinDTH
	}
	a.checkDTH(dth)
	return dth
}

// Preallocate implements filter.Preallocator: it sizes the node index
// and the clustering's per-node stores for IDs in [0, n). The node
// slots themselves grow with the nodes actually offered.
func (a *ADF) Preallocate(n int) {
	a.index.Grow(n)
	a.clusters.Preallocate(n)
}

// Forget implements filter.Filter. The node's slot is reset in place
// and revived if the node rejoins.
func (a *ADF) Forget(node int) {
	if slot, ok := a.index.Get(node); ok {
		if st := &a.nodes[slot]; st.live {
			obs.PatternNodes(int(st.pattern)).Add(-1)
			st.forget()
			a.live--
		}
	}
	a.clusters.Remove(cluster.NodeID(node))
}

// PatternOf returns the current mobility pattern of a node.
func (a *ADF) PatternOf(node int) MobilityPattern {
	slot, ok := a.index.Get(node)
	if !ok {
		return PatternUnknown
	}
	return a.nodes[slot].pattern
}

// ClusterCount returns the number of live clusters.
func (a *ADF) ClusterCount() int { return a.clusters.Len() }

// ClusterStats summarises one cluster for diagnostics and experiments.
type ClusterStats struct {
	ID        cluster.ID
	Size      int
	MeanSpeed float64
	DTH       float64
}

// Clusters returns per-cluster statistics ordered by cluster ID.
func (a *ADF) Clusters() []ClusterStats {
	cs := a.clusters.Clusters()
	out := make([]ClusterStats, 0, len(cs))
	for _, c := range cs {
		dth := a.cfg.DTHFactor * c.MeanSpeed() * a.cfg.SamplePeriod
		if dth < a.cfg.MinDTH {
			dth = a.cfg.MinDTH
		}
		out = append(out, ClusterStats{
			ID:        c.ID(),
			Size:      c.Size(),
			MeanSpeed: c.MeanSpeed(),
			DTH:       dth,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodeCount returns the number of nodes the ADF is tracking.
func (a *ADF) NodeCount() int { return a.live }
