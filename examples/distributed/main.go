// Distributed: the paper's HLA-based architecture as a real federation.
// Three federates — mobile nodes, the ADF, and the grid broker — join a
// federation over the TCP RTI (started in-process on a loopback port, as
// cmd/rtiserver would host it) and advance logical time conservatively in
// 1-second steps:
//
//	nodes  --LU interactions-->  adf  --FilteredLU-->  broker
//
// The nodes federate moves 30 mobile nodes and publishes every sampled
// location; the ADF federate filters them with the Adaptive Distance
// Filter; the broker federate maintains the location DB and repairs
// filtered updates with the gap-aware estimator.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sync"
	"time"

	adf "github.com/mobilegrid/adf"
	"github.com/mobilegrid/adf/internal/hla"
	"github.com/mobilegrid/adf/internal/wire"
)

const (
	federation  = "mobilegrid"
	luClass     = "LU"         // raw location updates: nodes -> adf
	passedClass = "FilteredLU" // surviving updates: adf -> broker
	steps       = 120          // simulated seconds
	nodeCount   = 30
	lookahead   = 1.0
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run hosts the federation, runs the three federates to the end and
// writes the report to out.
func run(out io.Writer) error {
	// Host the RTI exactly as cmd/rtiserver does, on a loopback port.
	rti := hla.NewRTI()
	if err := rti.CreateFederation(federation); err != nil {
		return err
	}
	srv, err := hla.NewServer(rti, "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve() }()
	defer func() { _ = srv.Close() }()
	addr := srv.Addr().String()
	fmt.Fprintf(out, "RTI serving federation %q on %s\n", federation, addr)

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	stats := &brokerStats{}
	// The nodes federate registers the synchronization point only once
	// the adf and broker federates are ready (joined and subscribed): a
	// point's participants are the federates joined at its registration,
	// so a later joiner would never hear of it and wait forever. A
	// receiving federate that fails before it is ready counts as ready,
	// so the nodes federate does not wait for it either.
	var ready sync.WaitGroup
	ready.Add(2)
	receiver := func(fed func(ready func()) error) {
		defer wg.Done()
		done := sync.OnceFunc(ready.Done)
		defer done()
		errs <- fed(done)
	}
	wg.Add(3)
	go func() { defer wg.Done(); errs <- nodesFederate(addr, &ready) }()
	go receiver(func(ready func()) error { return adfFederate(addr, ready) })
	go receiver(func(ready func()) error { return brokerFederate(addr, stats, ready) })
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "\nafter %d steps with %d nodes:\n", steps, nodeCount)
	fmt.Fprintf(out, "  raw LUs sampled:       %d\n", steps*nodeCount)
	fmt.Fprintf(out, "  LUs reaching broker:   %d (%.1f%% traffic saved)\n",
		stats.received, 100*(1-float64(stats.received)/float64(steps*nodeCount)))
	fmt.Fprintf(out, "  nodes tracked:         %d\n", stats.tracked)
	fmt.Fprintf(out, "  mean broker error:     %.2f m\n", stats.meanError())
	return nil
}

// walkerPos is the closed-form trajectory of walker i at time t: a loop
// around campus whose instantaneous speed varies ±40%, like a real
// pedestrian. Both the nodes federate (to generate LUs) and the broker
// federate (to score its beliefs) evaluate it.
func walkerPos(i int, t float64) adf.Point {
	speed := 0.5 + float64(i)*0.2
	r := 40 + 5*float64(i)
	theta := speed * (t + 2*math.Sin(t/5+float64(i))) / r
	return adf.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
}

// decodeLU reads an LU's node and position (wire.DecodeLU).
func decodeLU(v hla.Values) (int, adf.Point, error) {
	node, x, y, err := wire.DecodeLU(v)
	return node, adf.Point{X: x, Y: y}, err
}

// silentAmbassador ignores every callback; federates that only send
// embed it. It also tracks federation synchronization so the federates
// can line up on the "population-placed" point before time stepping.
type silentAmbassador struct {
	announced bool
	synced    bool
}

func (*silentAmbassador) ReceiveInteraction(string, hla.Values, float64) {}
func (*silentAmbassador) TimeAdvanceGrant(float64)                       {}
func (a *silentAmbassador) AnnounceSynchronizationPoint(string, []byte)  { a.announced = true }
func (a *silentAmbassador) FederationSynchronized(string)                { a.synced = true }

// syncPoint is the label every federate achieves before stepping.
const syncPoint = "population-placed"

// waitForPointThenSync waits for the point to be announced, achieves it,
// and waits for federation-wide synchronization.
func waitForPointThenSync(c *hla.Client, amb *silentAmbassador) error {
	for !amb.announced {
		if err := c.Tick(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return awaitSync(c, amb)
}

// awaitSync achieves the synchronization point and waits (ticking the
// RTI) until the whole federation has.
func awaitSync(c *hla.Client, amb *silentAmbassador) error {
	if err := c.SynchronizationPointAchieved(syncPoint); err != nil {
		return err
	}
	for !amb.synced {
		if err := c.Tick(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// nodesFederate moves nodeCount walkers and publishes raw LUs. It
// registers the synchronization point once ready says the receiving
// federates are joined.
func nodesFederate(addr string, ready *sync.WaitGroup) error {
	c, err := hla.Dial(addr)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	amb := &silentAmbassador{}
	if err := c.Join(federation, "nodes", lookahead, amb); err != nil {
		return err
	}
	if err := c.PublishInteractionClass(luClass); err != nil {
		return err
	}
	// The nodes federate owns the synchronization point; everyone lines
	// up on it before logical time starts moving.
	ready.Wait()
	if err := c.RegisterSynchronizationPoint(syncPoint, nil); err != nil {
		return err
	}
	if err := awaitSync(c, amb); err != nil {
		return err
	}

	for step := 1; step <= steps; step++ {
		t := float64(step)
		for i := 0; i < nodeCount; i++ {
			p := walkerPos(i, t)
			if err := c.SendInteraction(luClass, wire.EncodeLU(i, p.X, p.Y), t); err != nil {
				return fmt.Errorf("nodes: send: %w", err)
			}
		}
		if err := c.TimeAdvanceRequest(t); err != nil {
			return fmt.Errorf("nodes: advance: %w", err)
		}
	}
	return c.Resign()
}

// adfAmbassador buffers incoming raw LUs for the ADF federate.
type adfAmbassador struct {
	silentAmbassador

	pending []hla.Values
	times   []float64
}

func (a *adfAmbassador) ReceiveInteraction(class string, params hla.Values, t float64) {
	a.pending = append(a.pending, params)
	a.times = append(a.times, t)
}

// adfFederate filters LUs with the Adaptive Distance Filter and forwards
// the survivors one lookahead later. It calls ready once it has joined
// and subscribed.
func adfFederate(addr string, ready func()) error {
	c, err := hla.Dial(addr)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	amb := &adfAmbassador{}
	if err := c.Join(federation, "adf", lookahead, amb); err != nil {
		return err
	}
	if err := c.SubscribeInteractionClass(luClass); err != nil {
		return err
	}
	if err := c.PublishInteractionClass(passedClass); err != nil {
		return err
	}
	ready()
	if err := waitForPointThenSync(c, &amb.silentAmbassador); err != nil {
		return err
	}

	f, err := adf.NewADF(adf.DefaultOptions())
	if err != nil {
		return err
	}

	for step := 1; step <= steps; step++ {
		t := float64(step)
		if err := c.TimeAdvanceRequest(t); err != nil {
			return fmt.Errorf("adf: advance: %w", err)
		}
		for i, params := range amb.pending {
			node, pos, err := decodeLU(params)
			if err != nil {
				continue
			}
			lu := adf.LU{Node: node, Time: amb.times[i], Pos: pos}
			if f.Offer(lu).Transmit {
				if err := c.SendInteraction(passedClass, params, t+lookahead); err != nil {
					return fmt.Errorf("adf: forward: %w", err)
				}
			}
		}
		amb.pending = amb.pending[:0]
		amb.times = amb.times[:0]
	}
	return c.Resign()
}

// brokerStats aggregates what the broker federate observed.
type brokerStats struct {
	received int
	tracked  int
	errSum   float64
	errN     int
}

func (s *brokerStats) meanError() float64 {
	if s.errN == 0 {
		return 0
	}
	return s.errSum / float64(s.errN)
}

// brokerAmbassador feeds surviving LUs into the grid broker.
type brokerAmbassador struct {
	silentAmbassador

	broker *adf.Broker
	stats  *brokerStats
	seen   map[int]bool
}

func (a *brokerAmbassador) ReceiveInteraction(class string, params hla.Values, t float64) {
	node, pos, err := decodeLU(params)
	if err != nil {
		return
	}
	a.broker.ReceiveLU(node, t, pos)
	a.stats.received++
	a.seen[node] = true
}

// brokerFederate maintains the location DB on the filtered stream. It
// calls ready once it has joined and subscribed.
func brokerFederate(addr string, stats *brokerStats, ready func()) error {
	c, err := hla.Dial(addr)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()

	broker := adf.NewBroker(func() adf.Estimator {
		e, err := adf.NewGapAwareEstimator()
		if err != nil {
			panic(err)
		}
		return e
	})
	amb := &brokerAmbassador{broker: broker, stats: stats, seen: map[int]bool{}}
	if err := c.Join(federation, "broker", lookahead, amb); err != nil {
		return err
	}
	if err := c.SubscribeInteractionClass(passedClass); err != nil {
		return err
	}
	ready()
	if err := waitForPointThenSync(c, &amb.silentAmbassador); err != nil {
		return err
	}

	const warmup = 20
	for step := 1; step <= steps; step++ {
		t := float64(step)
		if err := c.TimeAdvanceRequest(t); err != nil {
			return fmt.Errorf("broker: advance: %w", err)
		}
		// Refresh the belief of every known node that stayed silent,
		// then score each belief against the walker's true position.
		// (LUs forwarded by the ADF are stamped one lookahead after the
		// sample, so the belief for sample time t-lookahead is complete.)
		for node := range amb.seen {
			entry, ok := broker.Location(node)
			if !ok {
				continue
			}
			if entry.Time < t {
				var err error
				if entry, err = broker.MissLU(node, t); err != nil {
					return err
				}
			}
			if step > warmup {
				stats.errSum += entry.Pos.Dist(walkerPos(node, t-lookahead))
				stats.errN++
			}
		}
	}
	stats.tracked = len(amb.seen)
	return c.Resign()
}
