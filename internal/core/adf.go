package core

import (
	"fmt"
	"slices"
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

// Name is the name of an ADF filter under c: "adf(0.75av)" at DTH
// factor 0.75.
func (c Config) Name() string {
	return fmt.Sprintf("adf(%.2fav)", c.DTHFactor)
}

// MaxDTHFactor bounds the DTH factor. A cluster's mean speed times the
// sample period is a per-step distance, so at this factor a threshold
// already exceeds any step in a world of realistic size by orders of
// magnitude; a larger factor only risks overflowing the threshold to
// +Inf, which would withhold every LU without a word.
const MaxDTHFactor = 1e6

// validFactor reports a DTH factor that is not in (0, MaxDTHFactor].
func validFactor(f float64) error {
	if !(f > 0) || f > MaxDTHFactor {
		return fmt.Errorf("core: DTHFactor must be in (0, %v], got %v", MaxDTHFactor, f)
	}
	return nil
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := validFactor(c.DTHFactor); err != nil {
		return err
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

// nodeState is the front's per-node bookkeeping, held by value in the
// front's compact node store with the classifier embedded.
type nodeState struct {
	cls     Classifier
	pattern MobilityPattern
	// live is false once the node is forgotten; a rejoin revives the
	// slot with its classifier ring intact.
	live bool
	// updated is set once the node has been updated since its last
	// forget, at the virtual time at. ready, clustered and mean are
	// that update's threshold inputs, read right after it: a later view
	// of the same LU must see the cluster mean as it was then, not after
	// the nodes updated since.
	updated, ready, clustered bool
	at, mean                  float64
	// gen counts the slot's forgets; a view whose slot carries an older
	// generation resets its own state for the node.
	gen uint32
}

// forget resets the slot in place for a later rejoin, keeping the
// classifier's ring and bumping the generation.
func (st *nodeState) forget() {
	cls, gen := st.cls, st.gen+1
	cls.reset()
	*st = nodeState{cls: cls, gen: gen}
}

// viewState is one factor view's per-node state.
type viewState struct {
	// anchor is the distance-comparison reference: the last transmitted
	// location (Anchored) or the previous sample (PerStep).
	anchor   geo.Point
	seenOnce bool
	// gen is the front slot generation the state belongs to.
	gen uint32
}

// front is the DTH-independent half of the ADF — the paper's steps
// (1)–(2) and (6): every node's classifier ring and pattern, the
// cluster manager and its periodic reconstruction. Every factor view of
// one ADF reads one front, which updates each node once per LU time
// however many views are offered it.
type front struct {
	// cfg is the configuration of the ADF that built the front; only
	// its Classifier, Cluster and ReclusterInterval are read here.
	cfg Config
	// index maps a node ID to its slot in nodes. Slots are handed out in
	// first-offer order — the order the owning shard visits its nodes —
	// so the per-tick walk over node state is sequential, and the store
	// grows with the nodes this front has seen, not with the ID span.
	index dense.Index
	nodes []nodeState
	// rings is the unclaimed rest of the classifier rings' backing
	// array, which PreallocateMembers sizes with the slot store: each
	// birth carves its node's WindowSize-1 steps from the front.
	rings []step
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

// ADF is the Adaptive Distance Filter of section 3.2. It implements
// filter.Filter so experiments can swap it against the baselines.
//
// The six-step process of section 3.4 maps onto the implementation as
// follows: steps (1)–(2), initial pattern recognition and cluster
// construction, happen as each node's classifier window fills; steps
// (3)–(5), location acquisition, distance filtering and transmission,
// happen in Offer; step (6), cluster reconstruction, runs every
// ReclusterInterval of virtual time.
//
// An ADF is a factor view of a front that holds steps (1)–(2) and (6).
// New builds a front with one view; At adds views at other DTH factors
// that share it. Each view keeps its own anchors, so k views offered the
// same LU stream decide bit for bit like k separate ADFs, while the
// classification and clustering run once.
type ADF struct {
	cfg Config
	f   *front
	// views holds this view's per-node state, indexed by front slot.
	views []viewState
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
	return &ADF{cfg: cfg, f: &front{cfg: cfg, clusters: cm}}, nil
}

// At returns a factor view of a's front at DTH factor factor: a filter
// that shares a's classification and clustering and keeps its own
// anchors. Views must be offered the same LU stream in tick lockstep —
// every view offers a node's LU at time t before any offers its next
// LU — as the pipeline's lanes do; a node forgotten through any view is
// forgotten by all of them. At panics on a factor outside (0,
// MaxDTHFactor].
func (a *ADF) At(factor float64) filter.Filter {
	cfg := a.cfg
	cfg.DTHFactor = factor
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: ADF view: %v", err))
	}
	return &ADF{cfg: cfg, f: a.f}
}

// Name implements filter.Filter.
func (a *ADF) Name() string { return a.cfg.Name() }

// Config returns the filter's configuration.
func (a *ADF) Config() Config { return a.cfg }

// Offer implements filter.Filter: the front feeds the node's classifier
// and keeps the clustering current, then the view sizes the node's DTH
// from its cluster's mean speed and applies the distance filter.
func (a *ADF) Offer(lu filter.LU) filter.Decision {
	slot, st := a.f.update(lu)
	v := a.view(slot, st.gen)
	dth := a.dthFor(st)

	if !v.seenOnce {
		v.seenOnce = true
		v.anchor = lu.Pos
		return filter.Decision{Transmit: true, Threshold: dth}
	}
	dist := lu.Pos.Dist(v.anchor)
	transmit := dist >= dth
	if transmit || a.cfg.Semantics == filter.PerStep {
		v.anchor = lu.Pos
	}
	return filter.Decision{Transmit: transmit, Distance: dist, Threshold: dth}
}

// view returns the view's state for a front slot, reset when the slot
// has been forgotten since the view last saw it.
func (a *ADF) view(slot int, gen uint32) *viewState {
	for slot >= len(a.views) {
		// First sight of a node by this view: within the preallocated
		// members it stays in capacity, past them it is amortised growth
		// of the view store; never a steady tick.
		a.views = append(a.views, viewState{})
	}
	v := &a.views[slot]
	if v.gen != gen {
		*v = viewState{gen: gen}
	}
	return v
}

// update runs the front's once-per-LU-time work for lu's node — the
// classifier, the node's pattern and cluster membership and the
// periodic reconstruction — and caches the node's threshold inputs. A
// later offer of the node at the same time, through another view or
// the same one, reuses the cache. It returns the node's slot and state;
// the pointer is valid until the next birth.
func (f *front) update(lu filter.LU) (int, *nodeState) {
	slot := f.state(lu.Node)
	st := &f.nodes[slot]
	if st.updated && geo.SameBits(st.at, lu.Time) {
		return slot, st
	}
	st.cls.Observe(lu.Time, lu.Pos)
	f.maintainClustering(lu.Time, lu.Node, st)
	st.updated, st.at = true, lu.Time
	st.ready = st.cls.Ready()
	st.mean, st.clustered = 0, false
	if st.ready {
		st.mean, st.clustered = f.clusters.MeanSpeedOf(cluster.NodeID(lu.Node))
	}
	return slot, st
}

// state returns the node's live slot, reviving a forgotten one or
// giving a first-seen node a new slot.
func (f *front) state(node int) int {
	slot, ok := f.index.Get(node)
	if !ok {
		// First sight of a node: within the preallocated members a birth
		// allocates nothing, past them it grows the slot store and
		// allocates one ring; every later tick, rejoins included, takes
		// the index lookup above.
		slot = f.birth(node)
	}
	if st := &f.nodes[slot]; !st.live {
		st.live = true
		f.live++
		obs.PatternNodes(int(PatternUnknown)).Add(1)
	}
	return slot
}

// birth appends a slot for a first-seen node and returns its number.
func (f *front) birth(node int) int {
	slot := len(f.nodes)
	f.index.Put(node, slot)
	f.nodes = append(f.nodes, nodeState{})
	w := f.cfg.Classifier.WindowSize - 1
	if len(f.rings) < w {
		f.rings = make([]step, w)
	}
	f.nodes[slot].cls.init(&f.cfg.Classifier, f.rings[:w:w])
	f.rings = f.rings[w:]
	return slot
}

// reserve sizes the slot store and the rings' backing array for n
// nodes, so the births up to n allocate nothing.
func (f *front) reserve(n int) {
	if n <= cap(f.nodes) {
		return
	}
	f.nodes = slices.Grow(f.nodes, n-len(f.nodes))
	f.rings = make([]step, (n-len(f.nodes))*(f.cfg.Classifier.WindowSize-1))
}

// maintainClustering updates the node's pattern and membership, and runs
// the periodic reconstruction.
func (f *front) maintainClustering(now float64, node int, st *nodeState) {
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
		f.clusters.Remove(nid)
	case prev != st.pattern:
		// Pattern changed (or was just learned): (re-)assign immediately.
		f.clusters.Assign(nid, st.cls.Feature())
	default:
		if _, clustered := f.clusters.ClusterOf(nid); !clustered {
			f.clusters.Assign(nid, st.cls.Feature())
		}
	}

	if !f.started {
		f.started = true
		f.lastRebuild = now
		return
	}
	if f.cfg.ReclusterInterval > 0 && now-f.lastRebuild >= f.cfg.ReclusterInterval {
		// Periodic reclustering (the paper's step 6) runs once per
		// ReclusterInterval, not per tick.
		f.rebuild(now)
		f.lastRebuild = now
	}
}

// rebuild re-runs the sequential clustering over every non-stop node's
// current feature (the paper's step 6) and records the DTH-recompute
// event: each reconstruction re-derives every cluster's mean speed and
// therefore every member's distance threshold.
func (f *front) rebuild(now float64) {
	f.featIDs = f.featIDs[:0]
	f.featVals = f.featVals[:0]
	// The index visits every ID ascending — negative and far-sparse IDs
	// included — which is the order RebuildOrdered requires.
	f.index.Range(func(id, slot int) bool {
		if st := &f.nodes[slot]; st.live && st.cls.Ready() && st.pattern != PatternStop {
			f.featIDs = append(f.featIDs, cluster.NodeID(id))
			f.featVals = append(f.featVals, st.cls.Feature())
		}
		return true
	})
	formed := f.clusters.RebuildOrdered(f.featIDs, f.featVals)
	obs.Reclusters.Inc()
	if obs.Events.On() {
		obs.Events.Emit("recluster",
			obs.F("t", now), obs.F("nodes", float64(len(f.featIDs))),
			obs.F("clusters", float64(formed)))
	}
}

// dthFor sizes the node's distance threshold from the front's cached
// inputs. Until the node's window fills the ADF behaves like the ideal
// LU (threshold 0 transmits everything), matching the paper's
// observation that "the number of LUs of the ADF is similar to the
// ideal LU at initial".
func (a *ADF) dthFor(st *nodeState) float64 {
	if !st.ready {
		return 0
	}
	if !st.clustered {
		// Stop-state node: only genuine movement past the floor reports.
		return a.cfg.MinDTH
	}
	return a.threshold(st.mean)
}

// threshold sizes a clustered node's DTH from its cluster's mean speed:
// DTHFactor × mean × SamplePeriod, floored at MinDTH. Offer and
// Clusters both size thresholds here.
func (a *ADF) threshold(mean float64) float64 {
	dth := a.cfg.DTHFactor * mean * a.cfg.SamplePeriod
	if dth < a.cfg.MinDTH {
		dth = a.cfg.MinDTH
	}
	return dth
}

// PreallocateMembers implements filter.Preallocator: it sizes the
// front's node index and the clustering's per-node stores for IDs in
// [0, span), and the front's slot store, its classifier rings and this
// view's state for members nodes, so the births of the first members
// nodes allocate nothing. Every view of a front may call it; the
// front's stores are sized once.
func (a *ADF) PreallocateMembers(span, members int) {
	a.f.index.Grow(span)
	a.f.clusters.Preallocate(span)
	a.f.reserve(members)
	if members > cap(a.views) {
		a.views = slices.Grow(a.views, members-len(a.views))
	}
}

// Preallocate sizes the ADF for n nodes with IDs in [0, n):
// PreallocateMembers(n, n).
func (a *ADF) Preallocate(n int) { a.PreallocateMembers(n, n) }

// Forget implements filter.Filter: the front resets the node's slot in
// place, to be revived if the node rejoins, and every view drops its
// state for the node. Forgetting through a second view of the same
// front is a no-op.
func (a *ADF) Forget(node int) {
	f := a.f
	if slot, ok := f.index.Get(node); ok {
		if st := &f.nodes[slot]; st.live {
			obs.PatternNodes(int(st.pattern)).Add(-1)
			st.forget()
			f.live--
		}
	}
	f.clusters.Remove(cluster.NodeID(node))
}

// PatternOf returns the current mobility pattern of a node.
func (a *ADF) PatternOf(node int) MobilityPattern {
	slot, ok := a.f.index.Get(node)
	if !ok {
		return PatternUnknown
	}
	return a.f.nodes[slot].pattern
}

// ClusterCount returns the number of live clusters.
func (a *ADF) ClusterCount() int { return a.f.clusters.Len() }

// ClusterStats summarises one cluster for diagnostics and experiments.
type ClusterStats struct {
	ID        cluster.ID
	Size      int
	MeanSpeed float64
	DTH       float64
}

// Clusters returns per-cluster statistics ordered by cluster ID.
func (a *ADF) Clusters() []ClusterStats {
	cs := a.f.clusters.Clusters()
	out := make([]ClusterStats, 0, len(cs))
	for _, c := range cs {
		out = append(out, ClusterStats{
			ID:        c.ID(),
			Size:      c.Size(),
			MeanSpeed: c.MeanSpeed(),
			DTH:       a.threshold(c.MeanSpeed()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Clustering returns the front's cluster manager, shared by every
// factor view, for readers that check the clustering itself
// (cluster.Manager.CheckSums). Callers must not mutate it.
func (a *ADF) Clustering() *cluster.Manager { return a.f.clusters }

// NodeCount returns the number of nodes the ADF is tracking.
func (a *ADF) NodeCount() int { return a.f.live }
