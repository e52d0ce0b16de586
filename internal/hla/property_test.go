package hla

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mobilegrid/adf/internal/sim"
)

// TestRandomFederationSchedulesSafe drives randomly generated federation
// schedules and checks the conservative-simulation safety properties
// that no individual scenario test can cover exhaustively:
//
//  1. Deliveries to each federate are in non-decreasing timestamp order.
//  2. No message is delivered with a timestamp above the grant that
//     released it (no future leaks).
//  3. Every message sent before the receiver passed its timestamp is
//     delivered exactly once (no losses, no duplicates).
func TestRandomFederationSchedulesSafe(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runRandomSchedule(t, seed)
		})
	}
}

// checkedAmbassador verifies delivery ordering against grants.
type checkedAmbassador struct {
	recorder
	t            *testing.T
	lastDelivery float64
	granted      float64
	received     map[string]bool
}

func (a *checkedAmbassador) ReceiveInteraction(class string, params Values, tm float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tm < a.lastDelivery {
		a.t.Errorf("delivery at %v after %v (out of order)", tm, a.lastDelivery)
	}
	a.lastDelivery = tm
	id := string(params["id"])
	if a.received == nil {
		a.received = map[string]bool{}
	}
	if a.received[id] {
		a.t.Errorf("message %s delivered twice", id)
	}
	a.received[id] = true
	a.interactions = append(a.interactions, callbackRecord{class: class, values: params, time: tm})
}

func (a *checkedAmbassador) TimeAdvanceGrant(tm float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Everything delivered before this grant must be at or below it.
	if a.lastDelivery > tm {
		a.t.Errorf("delivery at %v leaked past grant %v", a.lastDelivery, tm)
	}
	a.granted = tm
	a.grants = append(a.grants, tm)
}

func runRandomSchedule(t *testing.T, seed int64) {
	const (
		federates = 3
		steps     = 30
	)
	rng := sim.NewRNG(seed)
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		t.Fatal(err)
	}

	ambs := make([]*checkedAmbassador, federates)
	feds := make([]*Federate, federates)
	for i := range feds {
		ambs[i] = &checkedAmbassador{t: t}
		f, err := rti.Join("test", fmt.Sprintf("f%d", i), 1.0, ambs[i])
		if err != nil {
			t.Fatal(err)
		}
		feds[i] = f
		if err := f.PublishInteractionClass("E"); err != nil {
			t.Fatal(err)
		}
		if err := f.SubscribeInteractionClass("E"); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-draw each federate's whole schedule so goroutines don't share
	// the RNG.
	type action struct {
		sendOffsets []float64 // message timestamps as offsets past time+lookahead
		advanceBy   float64
	}
	schedules := make([][]action, federates)
	for i := range schedules {
		for s := 0; s < steps; s++ {
			var a action
			n := rng.Intn(3)
			for m := 0; m < n; m++ {
				a.sendOffsets = append(a.sendOffsets, rng.Uniform(0, 5))
			}
			a.advanceBy = rng.Uniform(0.1, 3)
			schedules[i] = append(schedules[i], a)
		}
	}
	// Actual send timestamps, recorded by each goroutine and read only
	// after the WaitGroup completes.
	sentActual := make([]map[string]float64, federates)
	for i := range sentActual {
		sentActual[i] = map[string]float64{}
	}

	var wg sync.WaitGroup
	wg.Add(federates)
	for i := range feds {
		i := i
		go func() {
			defer wg.Done()
			f := feds[i]
			msg := 0
			for s, a := range schedules[i] {
				for _, off := range a.sendOffsets {
					id := fmt.Sprintf("f%d-%d", i, msg)
					msg++
					ts := f.Time() + f.Lookahead() + off
					if err := f.SendInteraction("E", Values{"id": []byte(id)}, ts); err != nil {
						t.Errorf("f%d step %d: send: %v", i, s, err)
						return
					}
					sentActual[i][id] = ts
				}
				if err := f.TimeAdvanceRequest(f.Time() + a.advanceBy); err != nil {
					t.Errorf("f%d step %d: advance: %v", i, s, err)
					return
				}
			}
			if err := f.Resign(); err != nil {
				t.Errorf("f%d: resign: %v", i, err)
			}
		}()
	}
	wg.Wait()

	// Completeness: every message stamped at or below a receiver's final
	// granted time must have been delivered to it exactly once.
	for i, amb := range ambs {
		amb.mu.Lock()
		granted := amb.granted
		got := amb.received
		amb.mu.Unlock()
		for j := range feds {
			if j == i {
				continue // senders do not receive their own interactions
			}
			for id, ts := range sentActual[j] {
				if ts <= granted && !got[id] {
					t.Errorf("f%d missed message %s at %v (granted to %v)", i, id, ts, granted)
				}
			}
		}
	}
}
