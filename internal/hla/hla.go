// Package hla implements a from-scratch subset of an HLA 1.3 style
// Run-Time Infrastructure (RTI), the distributed-simulation substrate the
// paper built its mobile-grid evaluation on (section 3.4: "we used the HLA
// specification ver 1.3 to design and develop the distributed simulation
// system").
//
// The subset covers what the mobile-grid federation uses, in which a
// location update reaches the broker as a timestamped interaction:
//
//   - Federation management: create, join, resign, and synchronization
//     points (sync.go).
//   - Declaration management: publish/subscribe interaction classes.
//   - Interactions: timestamped sends, delivered in timestamp order.
//   - Time management: conservative time stepping, one lookahead per
//     federate. TimeAdvanceRequest blocks until the lower-bound time
//     stamp (LBTS) over every other federate permits the grant, and all
//     timestamped messages up to the grant time are delivered, in
//     timestamp order, before the grant.
//
// HLA object management and event-driven time advance are not part of
// it: the federation uses neither.
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
	// ErrResigned is returned for operations on a resigned federate.
	ErrResigned = errors.New("hla: federate has resigned")
	// ErrNotPublished is returned when sending without publication.
	ErrNotPublished = errors.New("hla: class not published")
	// ErrInvalidTime is returned when a timestamp violates the federate's
	// time + lookahead guarantee or a TAR goes backwards.
	ErrInvalidTime = errors.New("hla: invalid timestamp")
	// ErrPendingAdvance is returned when a TAR is issued while one is
	// outstanding.
	ErrPendingAdvance = errors.New("hla: time advance already pending")
)

// FederateHandle identifies a joined federate within its federation.
type FederateHandle int

// ObjectHandle identifies an HLA object instance. The RTI has no object
// management; the type remains for the no-op object callbacks of the
// benchmark module's federates (benchmark/rti.go), which name it.
type ObjectHandle int

// Values carries interaction parameter values, keyed by name.
type Values map[string][]byte

// blockChunk is the size of a blockArena chunk, the connection buffer
// size: one chunk holds a few time advances' worth of LU blocks.
const blockChunk = ioBufferSize

// blockArena is the append-only store of the interaction parameter
// blocks one federate sends. Each run of blocks is carved from the
// current chunk, capped at its own length and never rewritten, so all
// the subscribers of the run share it. A chunk that is full is left to
// the runs carved from it: the arena retains its current chunk, and a
// full chunk lives on only while a queued callback refers to one of its
// runs.
type blockArena struct {
	buf []byte
}

// reserve makes room for n more bytes, starting a new chunk when the
// current one has too little.
func (a *blockArena) reserve(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]byte, 0, max(blockChunk, n))
	}
}

// carved returns the bytes appended since offset i as one block.
func (a *blockArena) carved(i int) []byte {
	return a.buf[i:len(a.buf):len(a.buf)]
}

// copy carves a copy of block.
func (a *blockArena) copy(block []byte) []byte {
	a.reserve(len(block))
	i := len(a.buf)
	a.buf = append(a.buf, block...)
	return a.carved(i)
}

// encode carves the canonical wire form of v (wire.AppendValues).
func (a *blockArena) encode(v Values) []byte {
	a.reserve(wire.ValuesSize(v))
	i := len(a.buf)
	a.buf = wire.AppendValues(a.buf, v)
	return a.carved(i)
}

// Ambassador is the federate-side callback interface (the HLA
// FederateAmbassador). Callbacks are invoked on the goroutine that calls
// TimeAdvanceRequest or Tick, never concurrently. The Values a callback
// receives belong to the receiving federate: no other federate, and no
// later callback, shares them, so an ambassador may keep or modify them.
type Ambassador interface {
	// ReceiveInteraction delivers a timestamped interaction.
	ReceiveInteraction(class string, params Values, time float64)
	// TimeAdvanceGrant completes a TimeAdvanceRequest.
	TimeAdvanceGrant(time float64)
}

// callbackKind discriminates queued callbacks.
type callbackKind int

const (
	cbInteraction callbackKind = iota + 1
	cbGrant
	cbAnnounceSync
	cbFederationSynced
)

// callback is one queued ambassador invocation. An interaction carries
// a run of n interactions of one class and time, their parameters n
// values blocks in canonical wire form back to back, shared read-only
// by every receiver of the run (see blockArena); a sync callback
// carries its point's label in name and, for an announcement, the
// receiver's own copy of the tag. tc carries the originating request's
// trace context across the TSO queue (zero for untraced sends) and
// enqueuedNS its wall-clock enqueue stamp (0 when observability was off
// at send time); neither influences delivery semantics, so traced and
// untraced runs stay bit-identical.
type callback struct {
	kind       callbackKind
	class      string
	name       string
	tag        []byte
	run        []byte
	n          int
	time       float64
	tc         wire.TraceContext
	enqueuedNS int64
}

// tracedDeliverer is implemented by ambassadors that forward a traced
// interaction run with its context (the TCP transport's remote
// ambassador).
type tracedDeliverer interface {
	deliverTraced(c callback)
}

// runReceiver is implemented by ambassadors that take a run of
// interactions as its shared blocks (the TCP transport's remote
// ambassador, which writes them out verbatim). Every other ambassador
// gets one ReceiveInteraction per interaction, in send order, each with
// Values of its own decoded from the run.
type runReceiver interface {
	receiveRun(class string, run []byte, n int, t float64)
}

// deliver invokes the callback on amb. A run's parameter names are
// decoded through names, the receiving federate's intern table, and
// its Values share one backing array (wire.Decoder.OwnValuesRun).
func (c callback) deliver(amb Ambassador, names *wire.Interner) {
	switch c.kind {
	case cbInteraction:
		if td, ok := amb.(tracedDeliverer); ok && (c.tc.Valid() || c.enqueuedNS != 0) {
			td.deliverTraced(c)
			return
		}
		if rr, ok := amb.(runReceiver); ok {
			rr.receiveRun(c.class, c.run, c.n, c.time)
			return
		}
		wire.NewDecoder(c.run).OwnValuesRun(c.n, names, func(v map[string][]byte) {
			amb.ReceiveInteraction(c.class, Values(v), c.time)
		})
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

// tsoMessage is a timestamped message waiting in a federate's TSO queue;
// its timestamp is cb.time.
type tsoMessage struct {
	seq uint64
	cb  callback
}

// federateState is the RTI-side record of one joined federate.
type federateState struct {
	handle FederateHandle
	name   string

	lookahead float64

	//adf:guardedby Federation.mu
	time float64
	//adf:guardedby Federation.mu
	pendingTAR float64
	//adf:guardedby Federation.mu
	hasTAR bool
	//adf:guardedby Federation.mu
	resigned bool

	// pub/sub interest sets, mutated by the publish/subscribe services.
	//
	//adf:guardedby Federation.mu
	pubInteractions map[string]bool
	//adf:guardedby Federation.mu
	subInteractions map[string]bool

	//adf:guardedby Federation.mu
	tsoQueue []tsoMessage

	// arena holds the parameter blocks of the interactions this
	// federate sends.
	//
	//adf:guardedby Federation.mu
	arena blockArena

	mailbox *mailbox
}

// Federation is one federation execution hosted by an RTI.
type Federation struct {
	name string

	mu sync.Mutex

	//adf:guardedby mu
	federates map[FederateHandle]*federateState
	// interactionSubs lists each interaction class's live subscribers
	// in handle order: the fan-out of a send.
	//
	//adf:guardedby mu
	interactionSubs map[string][]*federateState
	//adf:guardedby mu
	syncPoints map[string]*syncPoint
	//adf:guardedby mu
	nextFederate FederateHandle
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
		name:            name,
		federates:       make(map[FederateHandle]*federateState),
		interactionSubs: make(map[string][]*federateState),
		nextFederate:    1,
	}
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

// Join adds a federate to a federation with the given lookahead and
// returns its in-process handle.
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
	// Time is the federate's current logical time, Lookahead the
	// lookahead it joined with.
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

// sendBounds computes, for every live federate, the earliest timestamp
// it may still put on a message. The bound is inclusive (a federate at
// time T may send exactly T + lookahead), so a grant to time t is safe
// only when t is strictly below every other federate's bound. A
// federate blocked in a TimeAdvanceRequest will be granted exactly its
// requested time, so its bound is request + lookahead; any other
// federate may send from its current time plus lookahead.
func (fed *Federation) sendBounds() map[FederateHandle]float64 {
	bounds := make(map[FederateHandle]float64, len(fed.federates))
	for h, f := range fed.federates {
		if f.resigned {
			continue
		}
		t := f.time
		if f.hasTAR {
			t = f.pendingTAR
		}
		bounds[h] = t + f.lookahead
	}
	return bounds
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
			if f.resigned || !f.hasTAR || lbtsFor(bounds, h) <= f.pendingTAR {
				continue
			}
			f.time = f.pendingTAR
			f.hasTAR = false
			fed.deliverGrant(f)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// deliverGrant moves queued messages with timestamps up to the
// federate's (just granted) time to its mailbox in timestamp order,
// followed by the grant. The messages left behind move to the front of
// the queue's array and the vacated slots are zeroed, so the array is
// reused and keeps no delivered values reachable. Callers must hold
// fed.mu.
func (fed *Federation) deliverGrant(f *federateState) {
	slices.SortFunc(f.tsoQueue, func(a, b tsoMessage) int {
		if c := cmp.Compare(a.cb.time, b.cb.time); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	n := 0
	for n < len(f.tsoQueue) && f.tsoQueue[n].cb.time <= f.time {
		n++
	}
	f.mailbox.pushGrant(f.tsoQueue[:n], callback{kind: cbGrant, time: f.time})
	k := copy(f.tsoQueue, f.tsoQueue[n:])
	clear(f.tsoQueue[k:])
	f.tsoQueue = f.tsoQueue[:k]
}

// routeTSO enqueues a callback, timestamped by cb.time, in a receiver's
// TSO queue, for delivery on its next grant at or past that time.
// Callers must hold fed.mu.
func (fed *Federation) routeTSO(f *federateState, cb callback) {
	fed.seq++
	f.tsoQueue = append(f.tsoQueue, tsoMessage{seq: fed.seq, cb: cb})
}

// subscribe adds f to class's interaction subscribers, keeping them in
// handle order. Callers must hold fed.mu and add f at most once.
func (fed *Federation) subscribe(class string, f *federateState) {
	subs := fed.interactionSubs[class]
	i, _ := slices.BinarySearchFunc(subs, f.handle, func(s *federateState, h FederateHandle) int {
		return cmp.Compare(s.handle, h)
	})
	fed.interactionSubs[class] = slices.Insert(subs, i, f)
}

// unsubscribe removes f from class's interaction subscribers. Callers
// must hold fed.mu.
func (fed *Federation) unsubscribe(class string, f *federateState) {
	subs := slices.DeleteFunc(fed.interactionSubs[class], func(s *federateState) bool { return s == f })
	if len(subs) == 0 {
		delete(fed.interactionSubs, class)
		return
	}
	fed.interactionSubs[class] = subs
}
