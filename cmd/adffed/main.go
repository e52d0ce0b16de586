// Command adffed is a minimal mobile-grid federate for exercising a
// standalone rtiserver across real process boundaries. It plays one of
// two roles:
//
//   - send: publishes the "LU" interaction class and, each logical
//     second, sends one timestamped location update per simulated node
//     before requesting a time advance (the mobile-node side of the
//     paper's architecture);
//   - recv: subscribes to "LU" and advances in lockstep, counting the
//     updates it receives (the broker side).
//
// The sender owns the federation synchronization point that lines the
// federates up before time stepping; the receiver prints "adffed: ready"
// on stdout once it has joined and subscribed, so a harness can start
// the sender only after the receiver is guaranteed to participate.
//
// With -obs-trace each process writes a Chrome trace_event JSON file at
// exit whose RTI request spans carry trace-context IDs; with -obs-events
// the structured NDJSON event stream (including the sync_probe records
// cmd/adfobs uses for clock alignment) goes to the given file. Feed both
// to cmd/adfobs together with the rtiserver's trace to get one
// cross-process, causally linked view of every LU's journey.
//
// Usage:
//
//	adffed -addr 127.0.0.1:4500 -role recv -obs-trace recv.json -obs-events recv.ndjson
//	adffed -addr 127.0.0.1:4500 -role send -steps 30 -nodes 5 -obs-trace send.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"github.com/mobilegrid/adf/internal/hla"
	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adffed: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adffed", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:4500", "rtiserver address")
		federation = fs.String("federation", "mobilegrid", "federation execution to join")
		role       = fs.String("role", "", `"send" or "recv"`)
		name       = fs.String("name", "", "federate name (defaults to the role)")
		steps      = fs.Int("steps", 30, "logical seconds to advance through")
		nodes      = fs.Int("nodes", 5, "location updates sent per step (send role)")
		lookahead  = fs.Float64("lookahead", 1.0, "federate lookahead")
		syncLabel  = fs.String("sync", "start", "synchronization point label")
		obsTrace   = fs.String("obs-trace", "", "write a Chrome trace_event JSON file (with RTI request spans) at exit")
		obsEvents  = fs.String("obs-events", "", "write NDJSON observability events to this file (\"-\" for stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *role != "send" && *role != "recv" {
		return fmt.Errorf("-role must be send or recv, got %q", *role)
	}
	if *name == "" {
		*name = *role
	}
	obs.SetProcName("adffed-" + *name)

	if *obsEvents != "" {
		w := os.Stderr
		if *obsEvents != "-" {
			f, err := os.Create(*obsEvents)
			if err != nil {
				return fmt.Errorf("obs events: %w", err)
			}
			defer func() { _ = f.Close() }()
			w = f
		}
		obs.Events.SetOutput(w)
		obs.SetEnabled(true)
	}
	if *obsTrace != "" {
		obs.SetEnabled(true)
		defer func() {
			f, err := os.Create(*obsTrace)
			if err != nil {
				log.Printf("obs trace: %v", err)
				return
			}
			if err := obs.WriteChromeTrace(f); err != nil {
				log.Printf("obs trace: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("obs trace: %v", err)
			}
		}()
	}

	c, err := hla.Dial(*addr)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()

	cfg := fedConfig{
		client:    c,
		steps:     *steps,
		nodes:     *nodes,
		lookahead: *lookahead,
		sync:      *syncLabel,
	}
	switch *role {
	case "send":
		err = sender(cfg, *federation, *name)
	case "recv":
		err = receiver(cfg, *federation, *name)
	}
	return err
}

type fedConfig struct {
	client    *hla.Client
	steps     int
	nodes     int
	lookahead float64
	sync      string
}

// luClass is the interaction class carrying raw location updates.
const luClass = "LU"

// ambassador tracks synchronization progress and counts received LUs.
type ambassador struct {
	announced bool
	synced    bool
	received  int
}

func (a *ambassador) ReceiveInteraction(string, hla.Values, float64) { a.received++ }
func (*ambassador) TimeAdvanceGrant(float64)                         {}
func (a *ambassador) AnnounceSynchronizationPoint(string, []byte)    { a.announced = true }
func (a *ambassador) FederationSynchronized(string)                  { a.synced = true }

// awaitSync achieves the synchronization point and ticks until the whole
// federation has.
func awaitSync(c *hla.Client, amb *ambassador, label string) error {
	if err := c.SynchronizationPointAchieved(label); err != nil {
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

// sender joins, registers the sync point (the receiver must already be
// joined — see the package comment) and streams LU interactions.
func sender(cfg fedConfig, federation, name string) error {
	c := cfg.client
	amb := &ambassador{}
	if err := c.Join(federation, name, cfg.lookahead, amb); err != nil {
		return err
	}
	if err := c.PublishInteractionClass(luClass); err != nil {
		return err
	}
	if err := c.RegisterSynchronizationPoint(cfg.sync, nil); err != nil {
		return err
	}
	if err := awaitSync(c, amb, cfg.sync); err != nil {
		return err
	}

	for step := 1; step <= cfg.steps; step++ {
		t := float64(step) * cfg.lookahead
		for i := 0; i < cfg.nodes; i++ {
			x := 40 * math.Cos(t/10+float64(i))
			y := 40 * math.Sin(t/10+float64(i))
			if err := c.SendInteraction(luClass, wire.EncodeLU(i, x, y), t); err != nil {
				return fmt.Errorf("send: %w", err)
			}
		}
		if err := c.TimeAdvanceRequest(t); err != nil {
			return fmt.Errorf("advance: %w", err)
		}
	}
	log.Printf("sent %d updates over %d steps", cfg.steps*cfg.nodes, cfg.steps)
	return c.Resign()
}

// receiver joins, subscribes, signals readiness on stdout and advances
// in lockstep with the sender, counting delivered LUs.
func receiver(cfg fedConfig, federation, name string) error {
	c := cfg.client
	amb := &ambassador{}
	if err := c.Join(federation, name, cfg.lookahead, amb); err != nil {
		return err
	}
	if err := c.SubscribeInteractionClass(luClass); err != nil {
		return err
	}
	// The harness starts the sender only after this line: the receiver is
	// then guaranteed to be a participant of the sender's sync point.
	fmt.Println("adffed: ready")
	for !amb.announced {
		if err := c.Tick(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	if err := awaitSync(c, amb, cfg.sync); err != nil {
		return err
	}

	for step := 1; step <= cfg.steps; step++ {
		t := float64(step) * cfg.lookahead
		if err := c.TimeAdvanceRequest(t); err != nil {
			return fmt.Errorf("advance: %w", err)
		}
	}
	log.Printf("received %d updates over %d steps", amb.received, cfg.steps)
	return c.Resign()
}
