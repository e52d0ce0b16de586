package obs

// This file declares every built-in instrument. Registration happens at
// package init so a process that never records (an idle rtiserver, a
// disabled simulation) still renders the full zero-valued family set on
// /metrics — a scrape target's shape should not depend on traffic.

// StageSecondsBounds are the per-stage latency bucket bounds in
// seconds: 10 µs to 1 s in a 1-3-10 ladder, covering a 5-node toy tick
// through a 5k-node campaign tick.
var StageSecondsBounds = []float64{
	10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 300e-3, 1,
}

// MetersBounds are the distance bucket bounds in metres for filter
// displacement and DTH histograms: campus walking scales (the DTH floor
// is 0.25 m, vehicle-speed nodes move ~15 m per sample).
var MetersBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// Pipeline counters, batched per tick through TickLocal.
var (
	// Ticks counts completed sampling rounds.
	Ticks = Default.Counter("adf_ticks_total")
	// LUOffered counts samples that reached the filter.
	LUOffered = Default.Counter("adf_lu_offered_total")
	// LUSent counts LUs the filter transmitted to the brokers.
	LUSent = Default.Counter("adf_lu_sent_total")
	// LUFiltered counts LUs the filter suppressed.
	LUFiltered = Default.Counter("adf_lu_filtered_total")
	// BrokerReceived counts LUs delivered to a lane's broker.
	BrokerReceived = Default.Counter("adf_broker_received_total")
	// BrokerEstimated counts belief refreshes served by the Location
	// Estimator (the lane broker's miss path).
	BrokerEstimated = Default.Counter("adf_broker_estimated_total")
	// ChurnLeft counts nodes departing the grid.
	ChurnLeft = Default.Counter("adf_churn_left_total")
	// ChurnRejoined counts departed nodes returning.
	ChurnRejoined = Default.Counter("adf_churn_rejoined_total")
)

// Clustering and broker cold-path counters, recorded at the source.
var (
	// Reclusters counts periodic cluster reconstructions (the paper's
	// step 6).
	Reclusters = Default.Counter("adf_reclusters_total")
	// ClustersCreated counts cluster births.
	ClustersCreated = Default.Counter("adf_clusters_created_total")
	// ClustersRetired counts clusters dropped after losing their last
	// member.
	ClustersRetired = Default.Counter("adf_clusters_retired_total")
	// BrokerRecords counts location-DB records created on a node's
	// first report; a simulation lane keeps one DB, so once per lane.
	BrokerRecords = Default.Counter("adf_broker_records_total")
	// BrokerForgets counts location-DB records dropped (churn), per lane.
	BrokerForgets = Default.Counter("adf_broker_forgets_total")
)

// HLA instruments (in-process RTI and TCP transport).
var (
	// FederateJoins counts successful federation joins.
	FederateJoins = Default.Counter("adf_federate_joins_total")
	// FederateResigns counts federate resignations.
	FederateResigns = Default.Counter("adf_federate_resigns_total")
	// FederatesConnected gauges currently joined federates across all
	// federations.
	FederatesConnected = Default.Gauge("adf_federates_connected")
	// RTIConns gauges live TCP connections on the RTI server.
	RTIConns = Default.Gauge("adf_rti_conns")
	// WireFramesIn/Out and WireBytesIn/Out count RTI protocol frames
	// and payload bytes over TCP, by direction.
	WireFramesIn  = Default.Counter("adf_rti_frames_total", "dir", "in")
	WireFramesOut = Default.Counter("adf_rti_frames_total", "dir", "out")
	WireBytesIn   = Default.Counter("adf_rti_bytes_total", "dir", "in")
	WireBytesOut  = Default.Counter("adf_rti_bytes_total", "dir", "out")
)

// State gauges.
var (
	// ClustersLive gauges the number of live clusters.
	ClustersLive = Default.Gauge("adf_clusters_live")
	// patternNodes gauges nodes per classified mobility pattern, in
	// core.MobilityPattern order.
	patternNodes = [4]*Gauge{
		Default.Gauge("adf_pattern_nodes", "pattern", "unknown"),
		Default.Gauge("adf_pattern_nodes", "pattern", "SS"),
		Default.Gauge("adf_pattern_nodes", "pattern", "RMS"),
		Default.Gauge("adf_pattern_nodes", "pattern", "LMS"),
	}
)

// PatternNodes returns the node-count gauge for a mobility pattern by
// its core.MobilityPattern ordinal. Out-of-range ordinals map to the
// "unknown" gauge so a future pattern cannot panic the hot path.
func PatternNodes(pattern int) *Gauge {
	if pattern < 0 || pattern >= len(patternNodes) {
		return patternNodes[0]
	}
	return patternNodes[pattern]
}

// Pipeline histograms.
var (
	// stageSeconds is the per-stage tick latency histogram, indexed by
	// Stage and fed by RecordTickSpans/RecordShardSpan.
	stageSeconds = [numStages]*Histogram{
		Default.Histogram("adf_stage_seconds", StageSecondsBounds, "stage", "advance"),
		Default.Histogram("adf_stage_seconds", StageSecondsBounds, "stage", "nodes"),
		Default.Histogram("adf_stage_seconds", StageSecondsBounds, "stage", "lane"),
		Default.Histogram("adf_stage_seconds", StageSecondsBounds, "stage", "tick"),
		Default.Histogram("adf_stage_seconds", StageSecondsBounds, "stage", "shard"),
		Default.Histogram("adf_stage_seconds", StageSecondsBounds, "stage", "merge"),
	}
	// FilterDistance is the per-LU displacement distribution.
	FilterDistance = Default.Histogram("adf_filter_distance_meters", MetersBounds)
	// FilterDTH is the distribution of thresholds LUs were compared
	// against.
	FilterDTH = Default.Histogram("adf_filter_dth_meters", MetersBounds)
)

// Stage waits: how often a stage of a concurrent pipeline found the
// tick-frame ring in its way. A run whose world waits more than its
// lanes is bound by the lane stages, and the other way round.
var (
	// WorldWaits counts world-stage ticks that found the ring full:
	// every frame still held by a lane stage that has not finished it.
	WorldWaits = Default.Counter("adf_stage_waits_total", "stage", "world")
	// LaneWaits counts lane-stage reads that found the ring empty: the
	// lane had caught up with the world stage.
	LaneWaits = Default.Counter("adf_stage_waits_total", "stage", "lane")
)

// ShardSeconds returns the per-region latency histogram for one shard's
// worker stage in the engine's region partition, so a skewed region (one
// campus road carrying most of the population) is visible per shard
// rather than folded into the aggregate "shard" stage series.
func ShardSeconds(region string) *Histogram {
	return Default.Histogram("adf_shard_seconds", StageSecondsBounds, "region", region)
}

// ShardNodes returns the gauge of nodes owned by a region shard, set by
// the engine when it builds the shards.
func ShardNodes(region string) *Gauge {
	return Default.Gauge("adf_shard_nodes", "region", region)
}

// RegionOffered returns the per-region offered-LU counter.
func RegionOffered(region string) *Counter {
	return Default.Counter("adf_region_lu_offered_total", "region", region)
}

// RegionSent returns the per-region transmitted-LU counter.
func RegionSent(region string) *Counter {
	return Default.Counter("adf_region_lu_sent_total", "region", region)
}
