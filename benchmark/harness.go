package main

import (
	"fmt"
	"math"
	"time"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/cluster"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/experiment"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/metrics"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sim"
)

// The harness is the benchmark's own tick loop for traced runs. It calls
// the layers' public functions in the classic pipeline's order, one
// stage at a time for every node, so each layer gets one span (two clock
// reads) per tick rather than per call. Batching by stage keeps every
// per-node call order, so its ADF 1.00av run reproduces
// experiment.Config{ShardWorkers: 0}.RunUncached bit for bit; the tests
// pin that.

// maxSummarySamples mirrors the experiment package's cap on exact
// error-summary samples; beyond it the summaries stride-sample, which
// changes the P99 the harness must reproduce.
const maxSummarySamples = 1 << 23

// harnessOut is what one harness run measured.
type harnessOut struct {
	// loop is the tick loop's wall time: the sum of engine.tick spans
	// when traced, the loop's own duration otherwise.
	loop  time.Duration
	spans []span

	totalLUs   float64
	rmseNoLE   float64
	rmseWithLE float64
	p99WithLE  float64

	extras   map[string]float64
	failures []string
}

// inputs are the stages that decide which samples reach the filter:
// the population, its gateways and the churn timeline.
type inputs struct {
	nodes      []*node.Node
	ids        []int
	collectors []gateway.Collector
	keyed      *sim.Keyed
	churn      *engine.KeyedChurn

	// Per-tick state, indexed like nodes.
	pos       []geo.Point
	lu        []filter.LU
	present   []bool
	connected []bool
}

// churnSink receives keyed-churn flips. Departures make every forgetter
// (the filter and both brokers, as in the classic pipeline) drop the
// node, and are kept for the shadow replay.
type churnSink struct {
	forget   []interface{ Forget(int) }
	events   int
	departed []int
}

func (s *churnSink) ChurnEvent(id int, left bool) {
	s.events++
	if !left {
		return
	}
	for _, f := range s.forget {
		f.Forget(id)
	}
	s.departed = append(s.departed, id)
}

// runHarness runs c's ADF 1.00av simulation through the harness. A nil
// rec runs it untraced. A traced run then replays the same inputs
// through the shadow classifier and clustering (see shadow).
func runHarness(c experiment.Config, rec *recorder) (harnessOut, error) {
	if err := c.Validate(); err != nil {
		return harnessOut{}, err
	}
	switch {
	case c.Burst != nil:
		return harnessOut{}, fmt.Errorf("harness: burst outages are not supported")
	case c.Churn != nil && c.RNGMode != experiment.RNGKeyed:
		return harnessOut{}, fmt.Errorf("harness: churn needs the keyed RNG mode")
	case c.Estimator != experiment.EstimatorGapAware:
		return harnessOut{}, fmt.Errorf("harness: only the %s estimator is supported", experiment.EstimatorGapAware)
	}
	// Eight spans per tick in the loop, up to three per tick in the shadow
	// replay, and the build spans.
	rec.reserve(11*int(c.Duration/c.SamplePeriod) + 16)
	root := rec.begin(spanRun, -1)

	b := rec.begin(spanBuild, root)
	in, err := buildInputs(c, rec, b)
	if err != nil {
		return harnessOut{}, err
	}
	n := len(in.nodes)

	sp := rec.begin(spanBrokerBuild, b)
	gcfg := estimate.DefaultGapAwareConfig()
	gcfg.HeadingAlpha = c.Smoothing
	if _, err := estimate.NewGapAwareLE(gcfg); err != nil {
		return harnessOut{}, err
	}
	noLE := broker.New(nil)
	withLE := broker.New(func() estimate.PositionEstimator {
		e, _ := estimate.NewGapAwareLE(gcfg) // gcfg was validated above
		return e
	})
	noLE.Preallocate(n)
	withLE.Preallocate(n)
	rec.end(sp, 2)

	sp = rec.begin(spanCoreBuild, b)
	adf, err := core.New(adfConfig(c))
	if err != nil {
		return harnessOut{}, err
	}
	adf.Preallocate(n)
	rec.end(sp, 1)

	var lus, offered metrics.CountSeries
	var rmseNo, rmseLE metrics.RMSESeries
	var errNo, errLE metrics.Summary
	seconds := int(c.Duration) + 1
	lus.Reserve(seconds)
	offered.Reserve(seconds)
	rmseNo.Reserve(seconds)
	rmseLE.Reserve(seconds)
	budget := int(c.Duration/c.SamplePeriod) * n
	if budget > maxSummarySamples {
		stride := (budget + maxSummarySamples - 1) / maxSummarySamples
		errNo.SetStride(stride)
		errLE.SetStride(stride)
		budget = budget/stride + 1
	}
	errNo.Reserve(budget)
	errLE.Reserve(budget)
	sink := &churnSink{forget: []interface{ Forget(int) }{adf, noLE, withLE}}
	rec.end(b, 1)

	var (
		transmit   = make([]bool, n)
		beliefNo   = make([]geo.Point, n)
		beliefLE   = make([]geo.Point, n)
		okNo, okLE = make([]bool, n), make([]bool, n)

		collected, delivered, sent, leSteps, estimated int
	)
	loopStart := clock()
	for tick, now := uint64(1), c.SamplePeriod; now <= c.Duration; tick, now = tick+1, now+c.SamplePeriod {
		tk := rec.begin(spanTick, root)
		calls, got := in.sample(rec, tk, tick, now, c.SamplePeriod, sink)
		collected += calls
		delivered += got
		sink.departed = sink.departed[:0]

		sp := rec.begin(spanOffer, tk)
		calls = 0
		for i, ok := range in.connected {
			transmit[i] = false
			if !ok {
				continue
			}
			transmit[i] = adf.Offer(in.lu[i]).Transmit
			calls++
			if transmit[i] {
				sent++
			}
		}
		rec.end(sp, calls)

		sp = rec.begin(spanStepNoLE, tk)
		calls = 0
		for i, id := range in.ids {
			if !in.present[i] {
				continue
			}
			e, ok := noLE.Step(id, now, in.pos[i], transmit[i])
			beliefNo[i], okNo[i] = e.Pos, ok
			calls++
		}
		rec.end(sp, calls)

		sp = rec.begin(spanStepLE, tk)
		calls = 0
		for i, id := range in.ids {
			if !in.present[i] {
				continue
			}
			e, ok := withLE.Step(id, now, in.pos[i], transmit[i])
			beliefLE[i], okLE[i] = e.Pos, ok
			calls++
			if ok && e.Estimated {
				estimated++
			}
		}
		rec.end(sp, calls)
		leSteps += calls

		sp = rec.begin(spanRecord, tk)
		calls = 0
		for i := range in.ids {
			if !in.present[i] {
				continue
			}
			if in.connected[i] {
				offered.Incr(now)
				calls++
			}
			if transmit[i] {
				lus.Incr(now)
				calls++
			}
			if okNo[i] {
				d := beliefNo[i].Dist(in.pos[i])
				rmseNo.Add(now, d)
				errNo.Add(d)
				calls += 2
			}
			if okLE[i] {
				d := beliefLE[i].Dist(in.pos[i])
				rmseLE.Add(now, d)
				errLE.Add(d)
				calls += 2
			}
		}
		rec.end(sp, calls)
		rec.end(tk, 1)
	}
	loop := since(loopStart)

	// The end-of-run sort of both error summaries, which every run of the
	// experiment package pays before it returns.
	sp = rec.begin(spanFinalize, root)
	_ = errNo.Max()
	_ = errLE.Max()
	p99 := errLE.Quantile(0.99)
	rec.end(sp, 2)

	out := harnessOut{
		loop:       loop,
		totalLUs:   lus.Total(),
		rmseNoLE:   rmseNo.Overall(),
		rmseWithLE: rmseLE.Overall(),
		p99WithLE:  p99,
		extras: map[string]float64{
			"gateway.delivered_ratio": ratio(delivered, collected),
			"core.transmit_ratio":     ratio(sent, delivered),
			"broker.estimated_ratio":  ratio(estimated, leSteps),
			"cluster.clusters":        float64(adf.ClusterCount()),
			"engine.churn_events":     float64(sink.events),
		},
	}
	if rec != nil {
		if err := replayShadow(c, rec, root); err != nil {
			return harnessOut{}, err
		}
		rec.end(root, 1)
		out.spans = rec.spans
		ticks := durationsOf(rec.spans, spanTick)
		var sum float64
		for _, d := range ticks {
			sum += d
		}
		out.loop = time.Duration(sum)
		out.extras["engine.tick_p50_ms"] = percentile(ticks, 0.50) / 1e6
		out.extras["engine.tick_p99_ms"] = percentile(ticks, 0.99) / 1e6
	}
	if r := out.extras["gateway.delivered_ratio"]; math.Abs(r-idealRate) > idealRateTol {
		out.failures = append(out.failures, fmt.Sprintf("gateway delivered %.4f of present samples, want %.3f ± %.2f",
			r, idealRate, idealRateTol))
	}
	if !(out.rmseWithLE < out.rmseNoLE) {
		out.failures = append(out.failures, fmt.Sprintf("RMSE with LE %.3f m not below %.3f m without",
			out.rmseWithLE, out.rmseNoLE))
	}
	return out, nil
}

// adfConfig is the ADF 1.00av configuration the experiment package
// builds for c.
func adfConfig(c experiment.Config) core.Config {
	a := c.ADF
	a.DTHFactor = 1.0
	a.SamplePeriod = c.SamplePeriod
	return a
}

// buildInputs constructs the population, gateways and churn timeline
// exactly as the experiment package does, the first two under their own
// spans.
func buildInputs(c experiment.Config, rec *recorder, parent int) (*inputs, error) {
	sp := rec.begin(spanNodeBuild, parent)
	world := campus.New()
	perGroup := c.PerGroup
	if perGroup == 0 {
		perGroup = campus.PerGroup
	}
	specs := campus.PopulationN(world, perGroup)
	in := &inputs{}
	streams := sim.NewStreams(c.Seed)
	if c.RNGMode == experiment.RNGKeyed {
		in.keyed = sim.NewKeyed(c.Seed)
		streams = sim.NewLightStreams(c.Seed)
	}
	nodes, err := node.Population(specs, world, streams)
	if err != nil {
		return nil, err
	}
	rec.end(sp, len(nodes))
	in.nodes = nodes
	in.ids = make([]int, len(nodes))
	for i, nd := range nodes {
		if nd.ID() != i {
			return nil, fmt.Errorf("harness: node %d has ID %d; population IDs must be dense", i, nd.ID())
		}
		in.ids[i] = i
	}

	sp = rec.begin(spanGatewayBuild, parent)
	var net *gateway.Network
	if in.keyed != nil {
		net, err = gateway.NewNetworkKeyed(world, c.DropProb, in.keyed)
	} else {
		net, err = gateway.NewNetwork(world, c.DropProb, streams)
	}
	if err != nil {
		return nil, err
	}
	in.collectors = make([]gateway.Collector, len(nodes))
	for i, nd := range nodes {
		if in.collectors[i], err = net.Gateway(nd.Region().ID); err != nil {
			return nil, err
		}
	}
	rec.end(sp, len(world.Regions()))

	if c.Churn != nil {
		in.churn = engine.NewKeyedChurn(c.Churn.LeaveProb, c.Churn.RejoinProb, in.keyed)
		in.churn.InitParts([][]int{in.ids})
	}
	n := len(nodes)
	in.pos = make([]geo.Point, n)
	in.lu = make([]filter.LU, n)
	in.present = make([]bool, n)
	in.connected = make([]bool, n)
	return in, nil
}

// sample runs one tick's input stages under parent: advance every node,
// apply churn, collect each present node's sample through its gateway.
// It returns the samples collected and those delivered.
func (in *inputs) sample(rec *recorder, parent int, tick uint64, now, period float64, sink *churnSink) (collected, delivered int) {
	sp := rec.begin(spanAdvance, parent)
	for i, nd := range in.nodes {
		in.pos[i] = nd.Advance(period)
	}
	rec.end(sp, len(in.nodes))

	if in.churn != nil {
		sp = rec.begin(spanChurn, parent)
		in.churn.ProcessPart(0, tick, sink)
		rec.end(sp, 1)
	}

	sp = rec.begin(spanCollect, parent)
	for i, id := range in.ids {
		in.present[i] = in.churn == nil || !in.churn.Absent(id)
		in.connected[i] = false
		if !in.present[i] {
			continue
		}
		in.lu[i], in.connected[i] = in.collectors[i].Collect(filter.LU{Node: id, Time: now, Pos: in.pos[i]})
		collected++
		if in.connected[i] {
			delivered++
		}
	}
	rec.end(sp, collected)
	return collected, delivered
}

// replayShadow regenerates the run's inputs from the seed and replays
// them through the shadow, after the measured loop so the shadow's
// memory traffic cannot slow the ticks it does not belong to.
func replayShadow(c experiment.Config, rec *recorder, parent int) error {
	in, err := buildInputs(c, nil, -1)
	if err != nil {
		return err
	}
	sh, err := newShadow(adfConfig(c), len(in.nodes))
	if err != nil {
		return err
	}
	sink := &churnSink{}
	for tick, now := uint64(1), c.SamplePeriod; now <= c.Duration; tick, now = tick+1, now+c.SamplePeriod {
		in.sample(nil, -1, tick, now, c.SamplePeriod, sink)
		if err := sh.step(rec, parent, now, in.connected, in.lu, sink.departed); err != nil {
			return err
		}
		sink.departed = sink.departed[:0]
	}
	return nil
}

// shadow mirrors core.(*ADF).Offer's classification and clustering on
// private core.Classifiers and a private cluster.Manager fed the same
// positions, so core.classify, cluster.assign and cluster.rebuild get
// spans of their own without instrumenting the ADF.
type shadow struct {
	cfg         core.Config
	nodes       []shadowNode
	mgr         *cluster.Manager
	started     bool
	lastRebuild float64
	ids         []cluster.NodeID
	feats       []cluster.Feature
}

type shadowNode struct {
	cl            *core.Classifier
	ready         bool
	pattern, next core.MobilityPattern
	feat          cluster.Feature
}

func newShadow(cfg core.Config, n int) (*shadow, error) {
	mgr, err := cluster.NewManager(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	mgr.Preallocate(n)
	return &shadow{cfg: cfg, nodes: make([]shadowNode, n), mgr: mgr}, nil
}

// step replays one tick: classify every delivered sample, forget this
// tick's departures, re-assign cluster membership the way the ADF does,
// and rebuild the clustering every ReclusterInterval.
func (s *shadow) step(rec *recorder, parent int, now float64, connected []bool, lu []filter.LU, departed []int) error {
	sp := rec.begin(spanClassify, parent)
	calls := 0
	for i := range s.nodes {
		if !connected[i] {
			continue
		}
		st := &s.nodes[i]
		if st.cl == nil {
			cl, err := core.NewClassifier(s.cfg.Classifier)
			if err != nil {
				return err
			}
			st.cl = cl
		}
		st.cl.Observe(now, lu[i].Pos)
		if st.ready = st.cl.Ready(); st.ready {
			st.next = st.cl.Pattern()
			st.feat = st.cl.Feature()
		}
		calls++
	}
	rec.end(sp, calls)

	sp = rec.begin(spanAssign, parent)
	calls = 0
	for _, id := range departed {
		s.nodes[id] = shadowNode{}
		s.mgr.Remove(cluster.NodeID(id))
		calls++
	}
	anyReady := false
	for i := range s.nodes {
		st := &s.nodes[i]
		if !connected[i] || !st.ready {
			continue
		}
		anyReady = true
		prev := st.pattern
		st.pattern = st.next
		nid := cluster.NodeID(i)
		switch {
		case st.pattern == core.PatternStop:
			s.mgr.Remove(nid)
		case prev != st.pattern:
			s.mgr.Assign(nid, st.feat)
		default:
			if _, ok := s.mgr.ClusterOf(nid); !ok {
				s.mgr.Assign(nid, st.feat)
			}
		}
		calls++
	}
	rec.end(sp, calls)

	if !anyReady {
		return nil
	}
	if !s.started {
		s.started = true
		s.lastRebuild = now
		return nil
	}
	if s.cfg.ReclusterInterval <= 0 || now-s.lastRebuild < s.cfg.ReclusterInterval {
		return nil
	}
	sp = rec.begin(spanRebuild, parent)
	s.ids, s.feats = s.ids[:0], s.feats[:0]
	for i := range s.nodes {
		if st := &s.nodes[i]; st.ready && st.pattern != core.PatternStop {
			s.ids = append(s.ids, cluster.NodeID(i))
			s.feats = append(s.feats, st.feat)
		}
	}
	s.mgr.RebuildOrdered(s.ids, s.feats)
	rec.end(sp, 1)
	s.lastRebuild = now
	return nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
