// Package hla implements a from-scratch subset of an HLA 1.3 style
// Run-Time Infrastructure (RTI), the distributed-simulation substrate the
// paper built its mobile-grid evaluation on (section 3.4: "we used the HLA
// specification ver 1.3 to design and develop the distributed simulation
// system").
//
// The subset covers what the experiment needs:
//
//   - Federation management: create, join, resign, destroy.
//   - Declaration management: publish/subscribe object classes (by
//     attribute) and interaction classes.
//   - Object management: register/discover/delete object instances,
//     timestamped attribute updates and interactions.
//   - Time management: conservative time stepping for
//     regulating/constrained federates — TimeAdvanceRequest blocks until
//     the federation's lower-bound time stamp (LBTS) permits the grant,
//     and all timestamped messages up to the grant time are delivered, in
//     timestamp order, before the grant.
//
// The core RTI is transport-agnostic; federates in the same process attach
// directly (NewRTI + Join), and package file tcp.go serves the same
// federation over TCP for genuinely distributed runs.
package hla

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

// Errors returned by RTI services.
var (
	// ErrFederationExists is returned when creating a federation that
	// already exists.
	ErrFederationExists = errors.New("hla: federation already exists")
	// ErrNoFederation is returned for operations on unknown federations.
	ErrNoFederation = errors.New("hla: no such federation")
	// ErrFederationNotEmpty is returned when destroying a federation that
	// still has joined federates.
	ErrFederationNotEmpty = errors.New("hla: federation has joined federates")
	// ErrResigned is returned for operations on a resigned federate.
	ErrResigned = errors.New("hla: federate has resigned")
	// ErrNotPublished is returned when sending without publication.
	ErrNotPublished = errors.New("hla: class not published")
	// ErrUnknownObject is returned for operations on unknown objects.
	ErrUnknownObject = errors.New("hla: unknown object instance")
	// ErrNotOwner is returned when updating another federate's object.
	ErrNotOwner = errors.New("hla: not the owner of the object instance")
	// ErrInvalidTime is returned when a timestamp violates the federate's
	// time + lookahead guarantee or a TAR goes backwards.
	ErrInvalidTime = errors.New("hla: invalid timestamp")
	// ErrPendingAdvance is returned when a TAR is issued while one is
	// outstanding.
	ErrPendingAdvance = errors.New("hla: time advance already pending")
)

// FederateHandle identifies a joined federate within its federation.
type FederateHandle int

// ObjectHandle identifies a registered object instance.
type ObjectHandle int

// Values carries attribute or parameter values, keyed by name.
type Values map[string][]byte

// clone copies v so senders and receivers cannot alias each other's maps.
func (v Values) clone() Values {
	if v == nil {
		return nil
	}
	return v.copyKeys(nil)
}

// copyKeys copies the entries of v whose key keep holds (every entry
// for an empty keep) into a new map whose values share one new backing
// array. Each value is capped at its own length, so an append to one
// reallocates instead of overwriting the next.
func (v Values) copyKeys(keep map[string]bool) Values {
	type entry struct {
		k string
		b []byte
	}
	var small [8]entry
	kept := small[:0]
	size := 0
	for k, b := range v {
		if len(keep) == 0 || keep[k] {
			kept = append(kept, entry{k, b})
			size += len(b)
		}
	}
	out := make(Values, len(kept))
	back := make([]byte, 0, size)
	for _, e := range kept {
		i := len(back)
		back = append(back, e.b...)
		out[e.k] = back[i:len(back):len(back)]
	}
	return out
}

// Ambassador is the federate-side callback interface (the HLA
// FederateAmbassador). Callbacks are invoked on the goroutine that calls
// TimeAdvanceRequest or Tick, never concurrently. The Values a callback
// receives belong to the receiving federate: no other federate, and no
// later callback, shares them, so an ambassador may keep or modify them.
type Ambassador interface {
	// DiscoverObjectInstance announces a remote object the federate
	// subscribes to.
	DiscoverObjectInstance(obj ObjectHandle, class, name string)
	// ReflectAttributeValues delivers a timestamped attribute update.
	ReflectAttributeValues(obj ObjectHandle, attrs Values, time float64)
	// ReceiveInteraction delivers a timestamped interaction.
	ReceiveInteraction(class string, params Values, time float64)
	// RemoveObjectInstance announces a deleted object.
	RemoveObjectInstance(obj ObjectHandle)
	// TimeAdvanceGrant completes a TimeAdvanceRequest.
	TimeAdvanceGrant(time float64)
}

// callbackKind discriminates queued callbacks.
type callbackKind int

const (
	cbDiscover callbackKind = iota + 1
	cbReflect
	cbInteraction
	cbRemove
	cbGrant
)

// callback is one queued ambassador invocation. tc carries the
// originating request's trace context across the TSO queue (zero for
// untraced sends) and enqueuedNS its wall-clock enqueue stamp (0 when
// observability was off at send time); neither influences delivery
// semantics, so traced and untraced runs stay bit-identical.
type callback struct {
	kind       callbackKind
	object     ObjectHandle
	class      string
	name       string
	values     Values
	time       float64
	tc         wire.TraceContext
	enqueuedNS int64
}

// tracedDeliverer is implemented by ambassadors that can forward a
// traced callback with its context (the TCP transport's remote
// ambassador). deliverTraced reports whether it handled the callback;
// false falls back to the plain interface dispatch.
type tracedDeliverer interface {
	deliverTraced(c callback) bool
}

func (c callback) deliver(amb Ambassador) {
	if (c.tc.Valid() || c.enqueuedNS != 0) && (c.kind == cbReflect || c.kind == cbInteraction) {
		if td, ok := amb.(tracedDeliverer); ok && td.deliverTraced(c) {
			return
		}
	}
	switch c.kind {
	case cbDiscover:
		amb.DiscoverObjectInstance(c.object, c.class, c.name)
	case cbReflect:
		amb.ReflectAttributeValues(c.object, c.values, c.time)
	case cbInteraction:
		amb.ReceiveInteraction(c.class, c.values, c.time)
	case cbRemove:
		amb.RemoveObjectInstance(c.object)
	case cbGrant:
		amb.TimeAdvanceGrant(c.time)
	case cbAnnounceSync, cbFederationSynced:
		deliverSync(c, amb)
	}
}

// mailbox is an unbounded FIFO of callbacks. It must be unbounded: the
// RTI pushes deliveries while holding federation state, and a bounded
// channel could deadlock the federation if one federate stops draining.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond

	// items[head:] are queued; the slots before head are popped and
	// zeroed, so a delivered callback's values are not kept reachable.
	// Pushes reuse the array: it is reset when it empties and compacted
	// when a push finds it full.
	//
	//adf:guardedby mu
	items []callback
	//adf:guardedby mu
	head int

	//adf:guardedby mu
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(c callback) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.reserve(1)
	m.items = append(m.items, c)
	m.cond.Signal()
}

// reserve compacts the queue to the front of its array when pushing n
// more would otherwise grow it. Callers must hold m.mu.
func (m *mailbox) reserve(n int) {
	if m.head == 0 || len(m.items)+n <= cap(m.items) {
		return
	}
	k := copy(m.items, m.items[m.head:])
	clear(m.items[k:])
	m.items = m.items[:k]
	m.head = 0
}

// pushGrant appends a time advance's TSO deliveries and its grant as one
// batch: the federate's goroutine never finds the mailbox empty part-way
// through, so a transport that flushes when the mailbox runs dry sends
// the whole advance at once.
func (m *mailbox) pushGrant(msgs []tsoMessage, grant callback) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.reserve(len(msgs) + 1)
	for _, msg := range msgs {
		m.items = append(m.items, msg.cb)
	}
	m.items = append(m.items, grant)
	m.cond.Signal()
}

// pop blocks until an item is available or the mailbox closes.
func (m *mailbox) pop() (callback, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.items) && !m.closed {
		m.cond.Wait()
	}
	return m.take()
}

// tryPop returns immediately.
func (m *mailbox) tryPop() (callback, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.take()
}

// take pops the head item, if any, and zeroes its slot. Callers must
// hold m.mu.
func (m *mailbox) take() (callback, bool) {
	if m.head == len(m.items) {
		return callback{}, false
	}
	c := m.items[m.head]
	m.items[m.head] = callback{}
	m.head++
	if m.head == len(m.items) {
		m.items, m.head = m.items[:0], 0
	}
	return c, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// tsoMessage is a timestamped message waiting in a federate's TSO queue.
type tsoMessage struct {
	time float64
	seq  uint64
	cb   callback
}

// federateState is the RTI-side record of one joined federate.
type federateState struct {
	handle FederateHandle
	name   string

	lookahead  float64
	regulating bool
	// constrained federates receive TSO messages only on time advance.
	constrained bool

	//adf:guardedby Federation.mu
	time float64
	//adf:guardedby Federation.mu
	pendingTAR float64
	//adf:guardedby Federation.mu
	hasTAR bool
	// nextEvent marks the pending request as a NextEventRequest: the
	// grant jumps to the next TSO message's timestamp when one precedes
	// the requested time.
	//
	//adf:guardedby Federation.mu
	nextEvent bool
	//adf:guardedby Federation.mu
	resigned bool

	// pub/sub interest sets, mutated by the publish/subscribe services.
	//
	//adf:guardedby Federation.mu
	pubObjects map[string]map[string]bool // class -> attribute set
	//adf:guardedby Federation.mu
	subObjects map[string]map[string]bool
	//adf:guardedby Federation.mu
	pubInteractions map[string]bool
	//adf:guardedby Federation.mu
	subInteractions map[string]bool

	//adf:guardedby Federation.mu
	tsoQueue []tsoMessage

	mailbox *mailbox
}

// objectState is the RTI-side record of one registered object instance.
type objectState struct {
	handle ObjectHandle
	class  string
	name   string
	owner  FederateHandle
	// discovered tracks which federates have received the discover
	// callback, so reflects are only routed to discoverers.
	discovered map[FederateHandle]bool
}

// Federation is one federation execution hosted by an RTI.
type Federation struct {
	name string

	mu sync.Mutex

	//adf:guardedby mu
	federates map[FederateHandle]*federateState
	//adf:guardedby mu
	objects map[ObjectHandle]*objectState
	//adf:guardedby mu
	syncPoints map[string]*syncPoint
	//adf:guardedby mu
	nextFederate FederateHandle
	//adf:guardedby mu
	nextObject ObjectHandle
	//adf:guardedby mu
	seq uint64
}

// RTI hosts federation executions. One RTI serves any number of
// federations; federates attach in-process via Join or remotely via the
// TCP transport.
type RTI struct {
	mu sync.Mutex

	//adf:guardedby mu
	federations map[string]*Federation
}

// NewRTI returns an empty RTI.
func NewRTI() *RTI {
	return &RTI{federations: make(map[string]*Federation)}
}

// CreateFederation creates a federation execution.
func (r *RTI) CreateFederation(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.federations[name]; ok {
		return fmt.Errorf("%w: %q", ErrFederationExists, name)
	}
	r.federations[name] = &Federation{
		name:         name,
		federates:    make(map[FederateHandle]*federateState),
		objects:      make(map[ObjectHandle]*objectState),
		nextFederate: 1,
		nextObject:   1,
	}
	return nil
}

// DestroyFederation removes an empty federation execution.
func (r *RTI) DestroyFederation(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	fed, ok := r.federations[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoFederation, name)
	}
	fed.mu.Lock()
	live := 0
	for _, f := range fed.federates {
		if !f.resigned {
			live++
		}
	}
	fed.mu.Unlock()
	if live > 0 {
		return fmt.Errorf("%w: %q has %d", ErrFederationNotEmpty, name, live)
	}
	delete(r.federations, name)
	return nil
}

// federation looks up a federation execution.
func (r *RTI) federation(name string) (*Federation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fed, ok := r.federations[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFederation, name)
	}
	return fed, nil
}

// Join adds a federate to a federation and returns its in-process handle.
// The federate is time-regulating and time-constrained with the given
// lookahead (the configuration the mobile-grid federation uses).
func (r *RTI) Join(federation, name string, lookahead float64, amb Ambassador) (*Federate, error) {
	if amb == nil {
		return nil, errors.New("hla: nil ambassador")
	}
	if lookahead <= 0 || math.IsNaN(lookahead) {
		return nil, fmt.Errorf("%w: lookahead %v", ErrInvalidTime, lookahead)
	}
	fed, err := r.federation(federation)
	if err != nil {
		return nil, err
	}
	fed.mu.Lock()
	defer fed.mu.Unlock()
	st := &federateState{
		handle:          fed.nextFederate,
		name:            name,
		lookahead:       lookahead,
		regulating:      true,
		constrained:     true,
		pubObjects:      make(map[string]map[string]bool),
		subObjects:      make(map[string]map[string]bool),
		pubInteractions: make(map[string]bool),
		subInteractions: make(map[string]bool),
		mailbox:         newMailbox(),
	}
	fed.nextFederate++
	fed.federates[st.handle] = st
	obs.FederateJoins.Inc()
	obs.FederatesConnected.Add(1)
	if obs.Events.On() {
		obs.Events.Emit("federate_join",
			obs.S("federation", federation), obs.S("name", name),
			obs.F("handle", float64(st.handle)))
	}
	return &Federate{fed: fed, st: st, amb: amb}, nil
}

// FederateInfo is one live federate's time-management state in a
// federation snapshot, the per-federate lag view /statusz renders.
type FederateInfo struct {
	// Name is the federate's name; Handle its federation-local handle.
	Name   string
	Handle FederateHandle
	// Time is the federate's current logical time, Lookahead its
	// regulating lookahead.
	Time      float64
	Lookahead float64
	// Pending reports a blocked time advance, RequestedTime its target
	// (meaningful only when Pending).
	Pending       bool
	RequestedTime float64
	// QueuedTSO counts timestamped messages waiting in the federate's
	// TSO queue.
	QueuedTSO int
}

// FederationInfo is one federation's live-membership snapshot.
type FederationInfo struct {
	// Name is the federation execution's name.
	Name string
	// Federates are the names of currently joined (not resigned)
	// federates, in join order.
	Federates []string
	// Detail carries each live federate's time-management state, in the
	// same order as Federates.
	Detail []FederateInfo
	// Watermark is the minimum logical time across live federates (the
	// federation's tick watermark); 0 when the federation is empty.
	Watermark float64
}

// Snapshot reports every federation and its live federates, ordered by
// federation name — the introspection the RTI server's shutdown path
// and observability endpoint read.
func (r *RTI) Snapshot() []FederationInfo {
	r.mu.Lock()
	feds := make([]*Federation, 0, len(r.federations))
	for _, fed := range r.federations {
		feds = append(feds, fed)
	}
	r.mu.Unlock()
	sort.Slice(feds, func(i, j int) bool { return feds[i].name < feds[j].name })
	out := make([]FederationInfo, 0, len(feds))
	for _, fed := range feds {
		fed.mu.Lock()
		info := FederationInfo{Name: fed.name}
		handles := make([]FederateHandle, 0, len(fed.federates))
		for h := range fed.federates {
			handles = append(handles, h)
		}
		sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
		for _, h := range handles {
			f := fed.federates[h]
			if f.resigned {
				continue
			}
			info.Federates = append(info.Federates, f.name)
			info.Detail = append(info.Detail, FederateInfo{
				Name:          f.name,
				Handle:        f.handle,
				Time:          f.time,
				Lookahead:     f.lookahead,
				Pending:       f.hasTAR,
				RequestedTime: f.pendingTAR,
				QueuedTSO:     len(f.tsoQueue),
			})
			if len(info.Detail) == 1 || f.time < info.Watermark {
				info.Watermark = f.time
			}
		}
		fed.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// sendBounds computes, for every live regulating federate, the earliest
// timestamp it may still put on a message. The bound is inclusive (a
// federate at time T may send exactly T + lookahead), so a grant to time
// t is safe only when t is strictly below every other federate's bound.
//
//   - An unblocked federate may send from its current time plus
//     lookahead.
//   - A federate blocked in a TimeAdvanceRequest will be granted exactly
//     its requested time, so its bound is request + lookahead.
//   - A federate blocked in a NextEventRequest may be granted *earlier*:
//     at the timestamp of a message it has queued — or one that another
//     federate may still send it. That last clause makes the bounds
//     mutually dependent, so they are lowered iteratively to a fixpoint
//     (the values only decrease and are drawn from a finite set, so the
//     loop terminates).
func (fed *Federation) sendBounds() map[FederateHandle]float64 {
	bounds := make(map[FederateHandle]float64, len(fed.federates))
	nerGrantFloor := func(f *federateState) float64 {
		t := f.pendingTAR
		if m, ok := f.nextTSOTime(); ok && m < t {
			t = m
		}
		return t
	}
	for h, f := range fed.federates {
		if f.resigned || !f.regulating {
			continue
		}
		switch {
		case f.hasTAR && f.nextEvent:
			bounds[h] = nerGrantFloor(f) + f.lookahead
		case f.hasTAR:
			bounds[h] = f.pendingTAR + f.lookahead
		default:
			bounds[h] = f.time + f.lookahead
		}
	}
	for {
		changed := false
		for h, f := range fed.federates {
			if f.resigned || !f.regulating || !f.hasTAR || !f.nextEvent {
				continue
			}
			floor := nerGrantFloor(f)
			for k, b := range bounds {
				if k != h && b < floor {
					floor = b
				}
			}
			if cand := floor + f.lookahead; cand < bounds[h] {
				bounds[h] = cand
				changed = true
			}
		}
		if !changed {
			return bounds
		}
	}
}

// lbtsFor computes the exclusive lower-bound time stamp for federate
// self from the given send bounds.
func lbtsFor(bounds map[FederateHandle]float64, self FederateHandle) float64 {
	lbts := math.Inf(1)
	for h, b := range bounds {
		if h != self && b < lbts {
			lbts = b
		}
	}
	return lbts
}

// evaluateGrants grants every pending TAR the LBTS now permits, delivering
// queued TSO messages first. Granting one federate can raise another's
// LBTS, so it loops to a fixpoint. Callers must hold fed.mu.
func (fed *Federation) evaluateGrants() {
	for {
		progressed := false
		bounds := fed.sendBounds()
		handles := make([]FederateHandle, 0, len(fed.federates))
		for h := range fed.federates {
			handles = append(handles, h)
		}
		sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
		for _, h := range handles {
			f := fed.federates[h]
			if f.resigned || !f.hasTAR {
				continue
			}
			grantTime := f.pendingTAR
			if f.nextEvent {
				// NextEventRequest: jump to the earliest queued message's
				// timestamp when it precedes the requested time. The jump
				// is only safe once the LBTS guarantees no earlier
				// message can still arrive.
				if m, ok := f.nextTSOTime(); ok && m < grantTime {
					grantTime = m
				}
			}
			if f.constrained && lbtsFor(bounds, h) <= grantTime {
				continue
			}
			f.time = grantTime
			f.hasTAR = false
			f.nextEvent = false
			fed.deliverGrant(f)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// nextTSOTime returns the earliest queued message timestamp.
func (f *federateState) nextTSOTime() (float64, bool) {
	if len(f.tsoQueue) == 0 {
		return 0, false
	}
	earliest := f.tsoQueue[0].time
	for _, m := range f.tsoQueue[1:] {
		if m.time < earliest {
			earliest = m.time
		}
	}
	return earliest, true
}

// deliverGrant moves queued messages with timestamps up to the
// federate's (just granted) time to its mailbox in timestamp order,
// followed by the grant. The messages left behind move to the front of
// the queue's array and the vacated slots are zeroed, so the array is
// reused and keeps no delivered values reachable. Callers must hold
// fed.mu.
func (fed *Federation) deliverGrant(f *federateState) {
	slices.SortFunc(f.tsoQueue, func(a, b tsoMessage) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	n := 0
	for n < len(f.tsoQueue) && f.tsoQueue[n].time <= f.time {
		n++
	}
	f.mailbox.pushGrant(f.tsoQueue[:n], callback{kind: cbGrant, time: f.time})
	k := copy(f.tsoQueue, f.tsoQueue[n:])
	clear(f.tsoQueue[k:])
	f.tsoQueue = f.tsoQueue[:k]
}

// routeTSO enqueues a timestamped callback for a receiver, or delivers it
// immediately when the receiver is not time-constrained. Callers must
// hold fed.mu.
func (fed *Federation) routeTSO(f *federateState, ts float64, cb callback) {
	if !f.constrained {
		f.mailbox.push(cb)
		return
	}
	fed.seq++
	f.tsoQueue = append(f.tsoQueue, tsoMessage{time: ts, seq: fed.seq, cb: cb})
}
