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

// PublishObjectClass declares the attributes this federate will update on
// instances of class.
func (f *Federate) PublishObjectClass(class string, attributes []string) error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	set := f.st.pubObjects[class]
	if set == nil {
		set = make(map[string]bool)
		f.st.pubObjects[class] = set
	}
	for _, a := range attributes {
		set[a] = true
	}
	return nil
}

// SubscribeObjectClass declares interest in attribute updates of class.
// Existing instances of the class are discovered immediately.
func (f *Federate) SubscribeObjectClass(class string, attributes []string) error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	set := f.st.subObjects[class]
	if set == nil {
		set = make(map[string]bool)
		f.st.subObjects[class] = set
	}
	for _, a := range attributes {
		set[a] = true
	}
	// Late subscribers discover existing instances.
	for _, obj := range f.fed.objects {
		if obj.class == class && obj.owner != f.st.handle && !obj.discovered[f.st.handle] {
			obj.discovered[f.st.handle] = true
			f.st.mailbox.push(callback{kind: cbDiscover, object: obj.handle, class: obj.class, name: obj.name})
		}
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
	f.st.subInteractions[class] = true
	return nil
}

// RegisterObjectInstance creates an object instance of a published class.
// Subscribed federates discover it immediately.
func (f *Federate) RegisterObjectInstance(class, name string) (ObjectHandle, error) {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return 0, err
	}
	if _, ok := f.st.pubObjects[class]; !ok {
		return 0, fmt.Errorf("%w: object class %q", ErrNotPublished, class)
	}
	obj := &objectState{
		handle:     f.fed.nextObject,
		class:      class,
		name:       name,
		owner:      f.st.handle,
		discovered: make(map[FederateHandle]bool),
	}
	f.fed.nextObject++
	f.fed.objects[obj.handle] = obj
	for h, other := range f.fed.federates {
		if h == f.st.handle || other.resigned {
			continue
		}
		if _, sub := other.subObjects[class]; sub {
			obj.discovered[h] = true
			other.mailbox.push(callback{kind: cbDiscover, object: obj.handle, class: class, name: name})
		}
	}
	return obj.handle, nil
}

// UpdateAttributeValues sends a timestamped attribute update for an owned
// object instance. The timestamp must respect the federate's time plus
// lookahead guarantee.
func (f *Federate) UpdateAttributeValues(obj ObjectHandle, attrs Values, ts float64) error {
	return f.updateAttributeValues(obj, attrs, ts, wire.TraceContext{})
}

// updateAttributeValues is UpdateAttributeValues with the originating
// request's trace context, which rides the routed callbacks to their
// delivery hops (the TCP server passes the inbound frame's context; the
// public method passes zero).
func (f *Federate) updateAttributeValues(obj ObjectHandle, attrs Values, ts float64, tc wire.TraceContext) error {
	enq := obs.RPCClock()
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	o, ok := f.fed.objects[obj]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, obj)
	}
	if o.owner != f.st.handle {
		return fmt.Errorf("%w: object %d", ErrNotOwner, obj)
	}
	if err := checkTimestamp(ts, f.st.time, f.st.lookahead); err != nil {
		return err
	}
	for h, other := range f.fed.federates {
		if h == f.st.handle || other.resigned {
			continue
		}
		sub, ok := other.subObjects[o.class]
		if !ok {
			continue
		}
		filtered := filterValues(attrs, sub)
		if len(filtered) == 0 {
			continue
		}
		if !o.discovered[h] {
			o.discovered[h] = true
			other.mailbox.push(callback{kind: cbDiscover, object: o.handle, class: o.class, name: o.name})
		}
		f.fed.routeTSO(other, ts, callback{kind: cbReflect, object: obj, values: filtered, time: ts, tc: tc, enqueuedNS: enq})
	}
	return nil
}

// filterValues copies the subscribed attributes of attrs. An empty
// subscribed set (SubscribeObjectClass with no attributes) means all
// attributes.
func filterValues(attrs Values, subscribed map[string]bool) Values {
	if len(subscribed) == 0 {
		return attrs.clone()
	}
	return attrs.copyKeys(subscribed)
}

// SendInteraction sends a timestamped interaction to subscribers.
func (f *Federate) SendInteraction(class string, params Values, ts float64) error {
	return f.sendInteraction(class, params, ts, wire.TraceContext{})
}

// sendInteraction is SendInteraction with the originating request's
// trace context (see updateAttributeValues).
func (f *Federate) sendInteraction(class string, params Values, ts float64, tc wire.TraceContext) error {
	enq := obs.RPCClock()
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	if err := checkSend(class, f.st.pubInteractions[class], ts, f.st.time, f.st.lookahead); err != nil {
		return err
	}
	for h, other := range f.fed.federates {
		if h == f.st.handle || other.resigned {
			continue
		}
		if !other.subInteractions[class] {
			continue
		}
		f.fed.routeTSO(other, ts, callback{kind: cbInteraction, class: class, values: params.clone(), time: ts, tc: tc, enqueuedNS: enq})
	}
	return nil
}

// checkSend is the sender-side validity of an interaction: its class
// is published and ts passes checkTimestamp. It is the one predicate
// both the RTI (sendInteraction) and a pipelined TCP Client apply, the
// client to its own record of publications and grants.
func checkSend(class string, published bool, ts, now, lookahead float64) error {
	if !published {
		return fmt.Errorf("%w: interaction class %q", ErrNotPublished, class)
	}
	return checkTimestamp(ts, now, lookahead)
}

// checkTimestamp enforces ts >= now + lookahead, where now is the
// sender's logical time; every federate is time-regulating (Join).
func checkTimestamp(ts, now, lookahead float64) error {
	if math.IsNaN(ts) {
		return fmt.Errorf("%w: NaN", ErrInvalidTime)
	}
	if ts < now+lookahead {
		return fmt.Errorf("%w: %v < time %v + lookahead %v",
			ErrInvalidTime, ts, now, lookahead)
	}
	return nil
}

// DeleteObjectInstance removes an owned object instance; discoverers get a
// remove callback.
func (f *Federate) DeleteObjectInstance(obj ObjectHandle) error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	o, ok := f.fed.objects[obj]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, obj)
	}
	if o.owner != f.st.handle {
		return fmt.Errorf("%w: object %d", ErrNotOwner, obj)
	}
	delete(f.fed.objects, obj)
	for h := range o.discovered {
		if other, ok := f.fed.federates[h]; ok && !other.resigned {
			other.mailbox.push(callback{kind: cbRemove, object: obj})
		}
	}
	return nil
}

// TimeAdvanceRequest asks to advance logical time to t. It blocks,
// delivering ambassador callbacks, until the grant arrives. All
// timestamped messages up to t are delivered (in timestamp order) before
// TimeAdvanceGrant.
func (f *Federate) TimeAdvanceRequest(t float64) error {
	return f.advance(t, false)
}

// NextEventRequest asks to advance to the timestamp of the next incoming
// TSO message, or to t when none arrives earlier. Event-stepped
// federates loop on it instead of fixed time steps. It blocks like
// TimeAdvanceRequest; the grant time is reported through
// TimeAdvanceGrant and Time.
func (f *Federate) NextEventRequest(t float64) error {
	return f.advance(t, true)
}

func (f *Federate) advance(t float64, nextEvent bool) error {
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
	f.st.nextEvent = nextEvent
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
		cb.deliver(f.amb)
		if cb.kind == cbGrant {
			return nil
		}
	}
}

// flusher is implemented by ambassadors that buffer callbacks (the TCP
// transport's remote ambassador). advance flushes them before it blocks
// on an empty mailbox, so no delivered callback waits behind the grant.
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
		cb.deliver(f.amb)
		delivered = true
	}
}

// Resign removes the federate from the federation. Its owned objects are
// deleted and other federates' pending advances are re-evaluated (a
// resigned federate no longer constrains the LBTS).
func (f *Federate) Resign() error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	f.st.resigned = true
	for h, o := range f.fed.objects {
		if o.owner != f.st.handle {
			continue
		}
		delete(f.fed.objects, h)
		for dh := range o.discovered {
			if other, ok := f.fed.federates[dh]; ok && !other.resigned {
				other.mailbox.push(callback{kind: cbRemove, object: h})
			}
		}
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
