package hla

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

// Federate is an in-process handle to a joined federate: the RTIambassador
// of HLA 1.3. Its methods are safe to call from the federate's own
// goroutine; callbacks are delivered during TimeAdvanceRequest and Tick.
type Federate struct {
	fed *Federation
	st  *federateState
	amb Ambassador
	// names interns the parameter names of the interactions delivered
	// to amb in process; only the federate's delivery path uses it.
	names wire.Interner
}

// Handle returns the federate's handle within its federation.
func (f *Federate) Handle() FederateHandle { return f.st.handle }

// Name returns the federate's name.
func (f *Federate) Name() string { return f.st.name }

// Time returns the federate's current logical time.
func (f *Federate) Time() float64 {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	return f.st.time
}

// Lookahead returns the federate's lookahead.
func (f *Federate) Lookahead() float64 { return f.st.lookahead }

func (f *Federate) checkLive() error {
	if f.st.resigned {
		return fmt.Errorf("%w: %s", ErrResigned, f.st.name)
	}
	return nil
}

// PublishInteractionClass declares this federate will send class.
func (f *Federate) PublishInteractionClass(class string) error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	f.st.pubInteractions[class] = true
	return nil
}

// SubscribeInteractionClass declares interest in interactions of class.
func (f *Federate) SubscribeInteractionClass(class string) error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	if !f.st.subInteractions[class] {
		f.st.subInteractions[class] = true
		f.fed.subscribe(class, f.st)
	}
	return nil
}

// SendInteraction sends a timestamped interaction to subscribers.
func (f *Federate) SendInteraction(class string, params Values, ts float64) error {
	return f.sendInteraction(class, nil, 1, params, ts, wire.TraceContext{})
}

// sendInteraction sends a run of n interactions of one class and time,
// with the originating request's trace context, which rides the routed
// callbacks to their delivery hops (the TCP server passes the inbound
// frame's context; SendInteraction passes zero). The parameters come
// as run, n values blocks in canonical wire form back to back
// (wire.Decoder.ValuesRun) that the caller may reuse once the call
// returns, or, when run is nil, as params, a run of one. Either way
// they are written once into the sender's arena, and each subscriber
// gets one callback that shares them.
func (f *Federate) sendInteraction(class string, run []byte, n int, params Values, ts float64, tc wire.TraceContext) error {
	enq := obs.RPCClock()
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	if err := checkSend(class, f.st.pubInteractions[class], ts, f.st.time, f.st.lookahead); err != nil {
		return err
	}
	var shared []byte
	for _, other := range f.fed.interactionSubs[class] {
		if other == f.st {
			continue
		}
		if shared == nil {
			if run != nil {
				shared = f.st.arena.copy(run)
			} else {
				shared = f.st.arena.encode(params)
			}
		}
		f.fed.routeTSO(other, callback{kind: cbInteraction, class: class, run: shared, n: n, time: ts, tc: tc, enqueuedNS: enq})
	}
	return nil
}

// checkSend is the sender-side validity of an interaction: its class
// is published and ts >= now + lookahead, where now is the sender's
// logical time. It is the one predicate both the RTI (sendInteraction)
// and a pipelined TCP Client apply, the client to its own record of
// publications and grants.
func checkSend(class string, published bool, ts, now, lookahead float64) error {
	switch {
	case !published:
		return fmt.Errorf("%w: interaction class %q", ErrNotPublished, class)
	case math.IsNaN(ts):
		return fmt.Errorf("%w: NaN", ErrInvalidTime)
	case ts < now+lookahead:
		return fmt.Errorf("%w: %v < time %v + lookahead %v",
			ErrInvalidTime, ts, now, lookahead)
	}
	return nil
}

// TimeAdvanceRequest asks to advance logical time to t. It blocks,
// delivering ambassador callbacks, until the grant arrives. All
// timestamped messages up to t are delivered (in timestamp order) before
// TimeAdvanceGrant.
func (f *Federate) TimeAdvanceRequest(t float64) error {
	f.fed.mu.Lock()
	if err := f.checkLive(); err != nil {
		f.fed.mu.Unlock()
		return err
	}
	if f.st.hasTAR {
		f.fed.mu.Unlock()
		return ErrPendingAdvance
	}
	if math.IsNaN(t) || t < f.st.time {
		f.fed.mu.Unlock()
		return fmt.Errorf("%w: TAR to %v at time %v", ErrInvalidTime, t, f.st.time)
	}
	f.st.hasTAR = true
	f.st.pendingTAR = t
	f.fed.evaluateGrants()
	f.fed.mu.Unlock()

	fl, _ := f.amb.(flusher)
	for {
		cb, ok := f.st.mailbox.tryPop()
		if !ok {
			// About to block: release what the ambassador buffered, so
			// the federate sees every callback delivered so far.
			if fl != nil {
				fl.flush()
			}
			if cb, ok = f.st.mailbox.pop(); !ok {
				return fmt.Errorf("%w: %s", ErrResigned, f.st.name)
			}
		}
		cb.deliver(f.amb, &f.names)
		if cb.kind == cbGrant {
			return nil
		}
	}
}

// flusher is implemented by ambassadors that buffer callbacks (the TCP
// transport's remote ambassador). TimeAdvanceRequest flushes them
// before it blocks on an empty mailbox, so no delivered callback waits
// behind the grant.
type flusher interface {
	flush()
}

// Tick delivers any pending callbacks without blocking and reports
// whether any were delivered.
func (f *Federate) Tick() bool {
	delivered := false
	for {
		cb, ok := f.st.mailbox.tryPop()
		if !ok {
			return delivered
		}
		cb.deliver(f.amb, &f.names)
		delivered = true
	}
}

// Resign removes the federate from the federation. Other federates'
// pending advances are re-evaluated (a resigned federate no longer
// constrains the LBTS).
func (f *Federate) Resign() error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	f.st.resigned = true
	for class := range f.st.subInteractions {
		f.fed.unsubscribe(class, f.st)
	}
	f.st.mailbox.close()
	f.fed.evaluateGrants()
	f.fed.reevaluateSyncPoints()
	obs.FederateResigns.Inc()
	obs.FederatesConnected.Add(-1)
	if obs.Events.On() {
		obs.Events.Emit("federate_resign",
			obs.S("federation", f.fed.name), obs.S("name", f.st.name),
			obs.F("handle", float64(f.st.handle)))
	}
	return nil
}
