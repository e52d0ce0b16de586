// Package cluster implements the sequential clustering scheme the ADF uses
// to group mobile nodes with similar motion (section 3.2.1 of the paper,
// following the Basic Sequential Algorithmic Scheme of Theodoridis &
// Koutroumbas, "Pattern Recognition").
//
// Each mobile node contributes a Feature — its measured speed and heading.
// The manager compares the node against existing cluster representatives;
// if the closest cluster is within the similarity bound α the node joins
// it, otherwise a new cluster is created. Because a node's mobility changes
// over time, memberships can be updated incrementally and the whole
// clustering can be rebuilt (the ADF's step-(6) "reconstruction").
//
// Assign is the inner loop of the ADF's hot path — it runs once per node
// per sampling period — so the manager keeps every per-candidate quantity
// incremental: each cluster caches its representative (mean speed and
// circular mean heading recomputed in O(1) from running sums on every
// membership change), the nearest-cluster scan is pruned through a
// speed-bucketed index instead of a full scan, and all scratch storage
// (member snapshots, ordered views, rebuild buffers, retired cluster
// structs) is pooled so a steady-state Assign performs no allocations.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/mobilegrid/adf/internal/dense"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/obs"
)

// NodeID identifies a mobile node within the clustering.
type NodeID int

// ID identifies a cluster. IDs are never reused within one Manager.
type ID int

// None is the ID returned for nodes that are not clustered.
const None ID = 0

// Feature is the motion summary the ADF clusters on: mean speed in m/s and
// mean heading in radians.
type Feature struct {
	Speed   float64
	Heading float64
}

// Config parameterises the sequential clustering.
type Config struct {
	// Alpha is the similarity bound: a node joins the nearest cluster only
	// if its distance to the cluster representative is below Alpha.
	// The paper calls this "the minimum difference in velocity (α)".
	Alpha float64
	// HeadingWeight converts heading difference (radians, at most π) into
	// the same units as speed difference (m/s). Zero clusters on speed
	// alone.
	HeadingWeight float64
	// MaxClusters caps the number of clusters; once reached, nodes join
	// the nearest cluster regardless of Alpha. Zero means unlimited.
	MaxClusters int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Alpha <= 0 {
		return fmt.Errorf("cluster: Alpha must be positive, got %v", c.Alpha)
	}
	if c.HeadingWeight < 0 {
		return fmt.Errorf("cluster: HeadingWeight must be non-negative, got %v", c.HeadingWeight)
	}
	if c.MaxClusters < 0 {
		return fmt.Errorf("cluster: MaxClusters must be non-negative, got %v", c.MaxClusters)
	}
	return nil
}

// DefaultConfig matches the experiment setup: α of 1 m/s with a mild
// heading contribution.
func DefaultConfig() Config {
	return Config{Alpha: 1.0, HeadingWeight: 0.25}
}

// noMember terminates a cluster's intrusive membership list.
const noMember NodeID = -1

// memberSlot is one node's stored feature plus the trigonometric terms
// it contributed to the running sums (so removal subtracts exactly what
// addition added without recomputing cos/sin) and its links in the
// owning cluster's membership list. Slots live in the manager's dense
// store, one per node, and are reused across cluster changes — unlike a
// per-cluster map, membership churn never re-grows storage.
type memberSlot struct {
	f          Feature
	cos, sin   float64
	prev, next NodeID
}

// Cluster is one group of similar nodes. Its representative is the running
// mean of the members' features, cached so reads are O(1).
type Cluster struct {
	id  ID
	mgr *Manager
	// head starts the intrusive membership list through the manager's
	// slot store; size counts members.
	head NodeID
	size int
	// Running sums for the representative.
	speedSum float64
	cosSum   float64
	sinSum   float64
	// Cached representative, refreshed on every membership change.
	meanSpeed   float64
	meanHeading float64
	// bucket is the speed-bucket index key the manager filed this cluster
	// under; inBucket is false while the cluster is detached.
	bucket   int
	inBucket bool
	// memberIDs is the cached sorted member view; membersDirty marks it
	// stale after a membership change.
	memberIDs    []NodeID
	membersDirty bool
}

// ID returns the cluster's identifier.
func (c *Cluster) ID() ID { return c.id }

// Size returns the number of member nodes.
func (c *Cluster) Size() int { return c.size }

// MeanSpeed returns the mean speed of the members, the quantity the ADF
// sizes its distance threshold from. It is O(1): the value is cached and
// refreshed incrementally on membership changes.
func (c *Cluster) MeanSpeed() float64 { return c.meanSpeed }

// MeanHeading returns the circular mean heading of the members. Like
// MeanSpeed it reads a cached value in O(1).
func (c *Cluster) MeanHeading() float64 { return c.meanHeading }

// Members returns the member IDs in ascending order. The returned slice is
// reused across calls and is only valid until the next membership change;
// callers that retain it must copy.
func (c *Cluster) Members() []NodeID {
	if c.membersDirty {
		c.memberIDs = c.memberIDs[:0]
		for id := c.head; id != noMember; id = c.mgr.members.Ptr(int(id)).next {
			c.memberIDs = append(c.memberIDs, id)
		}
		slices.Sort(c.memberIDs)
		c.membersDirty = false
	}
	return c.memberIDs
}

// refresh recomputes the cached representative from the running sums. The
// arithmetic matches a from-scratch mean over the same sums bit for bit.
func (c *Cluster) refresh() {
	if c.size == 0 {
		c.meanSpeed = 0
	} else {
		c.meanSpeed = c.speedSum / float64(c.size)
	}
	if c.cosSum == 0 && c.sinSum == 0 {
		c.meanHeading = 0
	} else {
		c.meanHeading = geo.NormalizeAngle(math.Atan2(c.sinSum, c.cosSum))
	}
}

func (c *Cluster) add(id NodeID, f Feature) {
	s := c.mgr.slotFor(id)
	s.f = f
	s.sin, s.cos = math.Sincos(f.Heading)
	s.prev = noMember
	s.next = c.head
	if c.head != noMember {
		c.mgr.members.Ptr(int(c.head)).prev = id
	}
	c.head = id
	c.size++
	c.speedSum += f.Speed
	c.cosSum += s.cos
	c.sinSum += s.sin
	c.membersDirty = true
	c.refresh()
}

// remove unlinks a current member. The caller (the manager, via its
// byNode index) guarantees id is a member of this cluster.
func (c *Cluster) remove(id NodeID) {
	s := c.mgr.members.Ptr(int(id))
	if s.prev != noMember {
		c.mgr.members.Ptr(int(s.prev)).next = s.next
	} else {
		c.head = s.next
	}
	if s.next != noMember {
		c.mgr.members.Ptr(int(s.next)).prev = s.prev
	}
	c.size--
	c.speedSum -= s.f.Speed
	c.cosSum -= s.cos
	c.sinSum -= s.sin
	if c.size == 0 {
		c.speedSum, c.cosSum, c.sinSum = 0, 0, 0
	}
	c.membersDirty = true
	c.refresh()
}

// reset returns a retired cluster to its empty state so the manager can
// pool and reuse the struct for a later cluster. Member slots need no
// cleanup: they are only reachable through a cluster's list head, and
// are fully rewritten when their node next joins a cluster.
func (c *Cluster) reset() {
	c.head = noMember
	c.size = 0
	c.speedSum, c.cosSum, c.sinSum = 0, 0, 0
	c.meanSpeed, c.meanHeading = 0, 0
	c.inBucket = false
	c.memberIDs = c.memberIDs[:0]
	c.membersDirty = false
}

// Manager maintains the live clustering. It is not safe for concurrent
// use; the simulation engine is single-threaded.
type Manager struct {
	cfg      Config
	clusters map[ID]*Cluster
	// byNode maps a node straight to its cluster. Node IDs are dense, so
	// the per-tick membership and mean-speed reads (ClusterOf, MeanSpeedOf)
	// are slice indexes, not hashed lookups.
	byNode dense.Map[*Cluster]
	// members holds every node's feature slot, linked into its cluster's
	// intrusive list. One slot per node, allocated on the node's first
	// membership (or up front by Preallocate) and reused forever after —
	// per-cluster maps would instead re-grow whenever a pooled cluster
	// received a larger membership than the struct had ever held, which
	// at large populations never stops.
	members dense.Slab[memberSlot]
	nextID  ID

	// Speed-bucketed nearest index: clusters filed by
	// floor(meanSpeed/bucketWidth). The heading term of the distance is
	// non-negative, so |f.Speed − meanSpeed| lower-bounds the distance and
	// the ring scan in nearest can stop early.
	bucketWidth float64
	buckets     map[int][]*Cluster
	// loBucket/hiBucket bound the occupied bucket range. They only widen
	// (a stale bound costs empty map probes, never correctness).
	loBucket, hiBucket int
	hasBuckets         bool

	// ordered is the cached ID-ascending view behind Clusters().
	ordered      []*Cluster
	orderedDirty bool

	// free pools retired cluster structs for reuse, so the periodic
	// rebuild allocates nothing in steady state.
	free []*Cluster

	// scans counts candidate distance evaluations inside nearest; tests
	// use it to pin the index's pruning behaviour.
	scans uint64
}

// NewManager returns an empty clustering with the given configuration.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Manager{
		cfg:         cfg,
		clusters:    make(map[ID]*Cluster),
		nextID:      1,
		bucketWidth: cfg.Alpha,
		buckets:     make(map[int][]*Cluster),
	}, nil
}

// distance is the similarity difference d(MN, C) between a feature and a
// cluster representative. Both representative means are cached, so this is
// O(1) regardless of cluster size.
//
//adf:hotpath
func (m *Manager) distance(f Feature, c *Cluster) float64 {
	d := math.Abs(f.Speed - c.meanSpeed)
	if m.cfg.HeadingWeight > 0 {
		d += m.cfg.HeadingWeight * geo.AngleDiff(f.Heading, c.meanHeading)
	}
	return d
}

// Preallocate sizes the dense per-node stores for node IDs in [0, n),
// so membership changes never grow storage afterwards.
func (m *Manager) Preallocate(n int) {
	m.members.Grow(n)
	m.byNode.Grow(n)
}

// slotFor returns node id's member slot, creating it on the node's
// first-ever membership.
//
//adf:hotpath
func (m *Manager) slotFor(id NodeID) *memberSlot {
	if s := m.members.Ptr(int(id)); s != nil {
		return s
	}
	//adf:allow hotpath — the node's first membership births its slot;
	// every later cluster change reuses it in place.
	return m.members.PutPtr(int(id), memberSlot{})
}

// bucketOf returns the index key for a mean speed.
func (m *Manager) bucketOf(speed float64) int {
	return int(math.Floor(speed / m.bucketWidth))
}

// fileCluster inserts a detached cluster into the speed index.
func (m *Manager) fileCluster(c *Cluster) {
	b := m.bucketOf(c.meanSpeed)
	c.bucket = b
	c.inBucket = true
	m.buckets[b] = append(m.buckets[b], c) //adf:allow hotpath — bucket slots are recycled; growth stops at the cluster-count peak
	if !m.hasBuckets {
		m.loBucket, m.hiBucket = b, b
		m.hasBuckets = true
		return
	}
	if b < m.loBucket {
		m.loBucket = b
	}
	if b > m.hiBucket {
		m.hiBucket = b
	}
}

// unfileCluster removes a cluster from the speed index (order within a
// bucket does not matter; nearest selects by (distance, ID)).
func (m *Manager) unfileCluster(c *Cluster) {
	if !c.inBucket {
		return
	}
	bs := m.buckets[c.bucket]
	for i, other := range bs {
		if other == c {
			bs[i] = bs[len(bs)-1]
			bs[len(bs)-1] = nil
			m.buckets[c.bucket] = bs[:len(bs)-1]
			break
		}
	}
	c.inBucket = false
}

// refileCluster moves a cluster between buckets after its representative
// changed, if the bucket key actually moved.
func (m *Manager) refileCluster(c *Cluster) {
	if c.inBucket && m.bucketOf(c.meanSpeed) == c.bucket {
		return
	}
	m.unfileCluster(c)
	m.fileCluster(c)
}

// scanBucket evaluates every cluster filed in bucket b against f and
// returns the updated (best, bestD) running minimum of (distance, ID).
//
//adf:hotpath
func (m *Manager) scanBucket(f Feature, b int, best *Cluster, bestD float64) (*Cluster, float64) {
	for _, c := range m.buckets[b] {
		m.scans++
		d := m.distance(f, c)
		// geo.SameBits, not ==: the tie-break must be an intentional
		// bit-identity test (d comes from Abs so -0.0 never appears).
		if d < bestD || (geo.SameBits(d, bestD) && (best == nil || c.id < best.id)) {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// nearest returns the closest cluster and its distance, or nil when there
// are no clusters. The winner minimises (distance, ID) — exactly the
// cluster a full ID-ordered scan would pick, ties breaking towards the
// lowest cluster ID so runs are deterministic — but only buckets whose
// speed gap can still beat the current best are examined.
//
//adf:hotpath
func (m *Manager) nearest(f Feature) (*Cluster, float64) {
	if len(m.clusters) == 0 {
		return nil, math.Inf(1)
	}
	var best *Cluster
	bestD := math.Inf(1)
	qb := m.bucketOf(f.Speed)
	best, bestD = m.scanBucket(f, qb, best, bestD)
	for r := 1; ; r++ {
		lo, hi := qb-r, qb+r
		loLive := lo >= m.loBucket
		hiLive := hi <= m.hiBucket
		if !loLive && !hiLive {
			break
		}
		// The tightest speed gap any cluster in this ring can have. Nudged
		// one ulp down so float rounding in the bucket keys can never
		// prune a cluster that ties the current best.
		ringLB := math.Inf(1)
		if loLive {
			ringLB = f.Speed - float64(lo+1)*m.bucketWidth
		}
		if hiLive {
			if d := float64(hi)*m.bucketWidth - f.Speed; d < ringLB {
				ringLB = d
			}
		}
		if math.Nextafter(ringLB, math.Inf(-1)) > bestD {
			break
		}
		if loLive {
			best, bestD = m.scanBucket(f, lo, best, bestD)
		}
		if hiLive {
			best, bestD = m.scanBucket(f, hi, best, bestD)
		}
	}
	return best, bestD
}

// newCluster returns a fresh (or pooled) empty cluster registered under
// the next ID. The caller files it into the speed index after the first
// member is added.
func (m *Manager) newCluster() *Cluster {
	var c *Cluster
	if n := len(m.free); n > 0 {
		c = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		//adf:allow hotpath — pool miss: a genuinely new cluster is born;
		// retired structs are reused first.
		c = &Cluster{mgr: m, head: noMember}
	}
	c.id = m.nextID
	m.nextID++
	m.clusters[c.id] = c
	m.orderedDirty = true
	obs.ClustersCreated.Inc()
	obs.ClustersLive.Set(int64(len(m.clusters)))
	return c
}

// retireCluster drops an empty cluster and pools its struct for reuse.
func (m *Manager) retireCluster(c *Cluster) {
	m.unfileCluster(c)
	delete(m.clusters, c.id)
	m.orderedDirty = true
	obs.ClustersRetired.Inc()
	obs.ClustersLive.Set(int64(len(m.clusters)))
	c.reset()
	m.free = append(m.free, c) //adf:allow hotpath — pool push; capacity is bounded by the cluster-count peak
}

// Assign places (or re-places) a node according to the sequential scheme
// and returns the cluster it ends up in. Updating an existing node first
// removes it from its old cluster so the representative stays exact.
//
//adf:hotpath
func (m *Manager) Assign(id NodeID, f Feature) ID {
	m.Remove(id)
	c, d := m.nearest(f)
	join := c != nil && d < m.cfg.Alpha
	if !join && c != nil && m.cfg.MaxClusters > 0 && len(m.clusters) >= m.cfg.MaxClusters {
		join = true // capped: accept the nearest even beyond α
	}
	if !join {
		c = m.newCluster()
		c.add(id, f)
		m.fileCluster(c)
	} else {
		c.add(id, f)
		m.refileCluster(c)
	}
	m.byNode.Put(int(id), c)
	return c.id
}

// Remove deletes a node from the clustering, dropping its cluster if it
// becomes empty. It reports whether the node was present.
//
//adf:hotpath
func (m *Manager) Remove(id NodeID) bool {
	c, ok := m.byNode.Get(int(id))
	if !ok {
		return false
	}
	m.byNode.Delete(int(id))
	c.remove(id)
	if c.Size() == 0 {
		m.retireCluster(c)
	} else {
		m.refileCluster(c)
	}
	return true
}

// ClusterOf returns the cluster a node belongs to, or (None, false).
func (m *Manager) ClusterOf(id NodeID) (ID, bool) {
	c, ok := m.byNode.Get(int(id))
	if !ok {
		return None, false
	}
	return c.id, true
}

// Cluster returns the cluster with the given ID, or nil.
func (m *Manager) Cluster(id ID) *Cluster { return m.clusters[id] }

// MeanSpeedOf returns the mean speed of the node's cluster, or (0, false)
// for unclustered nodes.
func (m *Manager) MeanSpeedOf(id NodeID) (float64, bool) {
	c, ok := m.byNode.Get(int(id))
	if !ok {
		return 0, false
	}
	return c.meanSpeed, true
}

// Len returns the number of clusters.
func (m *Manager) Len() int { return len(m.clusters) }

// NodeCount returns the number of clustered nodes.
func (m *Manager) NodeCount() int { return m.byNode.Len() }

// Clusters returns the clusters ordered by ID. The returned slice is
// cached, invalidated when clusters are created or dropped, and only valid
// until the next mutation; callers that retain it must copy.
func (m *Manager) Clusters() []*Cluster {
	if m.orderedDirty {
		m.ordered = m.ordered[:0]
		for _, c := range m.clusters {
			m.ordered = append(m.ordered, c)
		}
		slices.SortFunc(m.ordered, func(a, b *Cluster) int { return cmp.Compare(a.id, b.id) })
		m.orderedDirty = false
	}
	return m.ordered
}

// sumsTol bounds how far a running sum may sit from its recompute. The
// recompute visits members in list order while the running sums
// followed assignment history, so the two round differently; anything
// beyond ~1e-6 relative error is drift, not rounding.
const sumsTol = 1e-6

// CheckSums is the reference for the O(1) statistics: it recomputes
// every cluster's speed, heading-cosine and heading-sine sums from its
// members and returns an error naming the first cluster whose running
// sum differs from the recompute beyond sumsTol (geo.NearEq), or whose
// cached mean is not finite. Clusters are visited in ID order.
func (m *Manager) CheckSums() error {
	for _, c := range m.Clusters() {
		var speed, cos, sin float64
		for id := c.head; id != noMember; id = m.members.Ptr(int(id)).next {
			f := m.members.Ptr(int(id)).f
			speed += f.Speed
			fs, fc := math.Sincos(f.Heading)
			cos += fc
			sin += fs
		}
		for _, s := range [...]struct {
			name      string
			run, want float64
		}{{"speed", c.speedSum, speed}, {"heading cosine", c.cosSum, cos}, {"heading sine", c.sinSum, sin}} {
			if !geo.NearEq(s.run, s.want, sumsTol) {
				return fmt.Errorf("cluster %d: running %s sum %v, recomputed %v", c.id, s.name, s.run, s.want)
			}
		}
		if math.IsNaN(c.meanSpeed) || math.IsInf(c.meanSpeed, 0) || math.IsNaN(c.meanHeading) {
			return fmt.Errorf("cluster %d: non-finite mean speed %v or heading %v", c.id, c.meanSpeed, c.meanHeading)
		}
	}
	return nil
}

// RebuildOrdered discards the current clustering and re-runs the
// sequential pass over the given features, in the ascending node-ID
// order the caller holds them in as parallel slices (the ADF's periodic
// cluster reconstruction; it collects them by ranging its dense node
// store, which visits IDs ascending). It returns the number of clusters
// formed. Retired clusters are pooled and the node index is cleared in
// place, so a steady-state reconstruction allocates nothing. ids and
// feats must be the same length; an ID order other than ascending
// changes which clusters form first and is a caller bug.
func (m *Manager) RebuildOrdered(ids []NodeID, feats []Feature) int {
	//adf:allow maporder — retirement order only permutes the free pool;
	// pooled structs are interchangeable after reset, so results are
	// bit-for-bit identical either way.
	for _, c := range m.clusters {
		m.unfileCluster(c)
		c.reset()
		m.free = append(m.free, c)
	}
	clear(m.clusters)
	m.byNode.Clear()
	m.orderedDirty = true
	for i, id := range ids {
		m.Assign(id, feats[i])
	}
	return len(m.clusters)
}
