package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/mobilegrid/adf/internal/hla"
	"github.com/mobilegrid/adf/internal/wire"
)

const (
	federation = "mobilegrid"
	luClass    = "LU"
	lookahead  = 1.0
)

// luRec is one generated location update.
type luRec struct {
	node int
	x, y float64
}

// generateStream builds the RTI workload's input from the seed alone, so
// no change to the simulation can move it: each logical second every
// node takes a random-walk step and sends an LU with probability rate,
// the per-node rate of the ADF 1.00av stream.
func generateStream(spec rtiSpec, seed int64) [][]luRec {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, spec.nodes)
	ys := make([]float64, spec.nodes)
	for i := range xs {
		xs[i] = 500 * rng.Float64()
		ys[i] = 500 * rng.Float64()
	}
	steps := make([][]luRec, spec.steps)
	for s := range steps {
		for i := range xs {
			xs[i] += rng.NormFloat64()
			ys[i] += rng.NormFloat64()
			if rng.Float64() < spec.rate {
				steps[s] = append(steps[s], luRec{node: i, x: xs[i], y: ys[i]})
			}
		}
	}
	return steps
}

// encodeLU packs (node, x, y) into interaction parameters in the layout
// cmd/adffed uses: three 8-byte big-endian values.
func encodeLU(l luRec) hla.Values {
	var b [24]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(l.node))
	binary.BigEndian.PutUint64(b[8:16], math.Float64bits(l.x))
	binary.BigEndian.PutUint64(b[16:24], math.Float64bits(l.y))
	return hla.Values{"node": b[0:8], "x": b[8:16], "y": b[16:24]}
}

// luHash digests one LU's parameters; summing the digests gives a
// checksum that does not depend on delivery order.
func luHash(v hla.Values) uint64 {
	h := fnv.New64a()
	for _, k := range []string{"node", "x", "y"} {
		_, _ = h.Write(v[k]) // hash.Hash writes never fail
	}
	return h.Sum64()
}

// rtiOut is what one RTI session measured.
type rtiOut struct {
	setup time.Duration
	wall  time.Duration
	// latencies are SendInteraction-call to ReceiveInteraction-callback
	// times, in ns, of every delivered LU.
	latencies []float64
	delivered int
	requests  int
	wireBytes int64
	spans     []span
	// sendCalls and advanceCalls are per-call durations (ns), kept only
	// when traced.
	sendCalls, advanceCalls []float64
	// frameBytes is the mean frame size of the traced codec replay.
	frameBytes float64
	failures   []string
}

// receiverAmb is the broker federate's ambassador: it timestamps and
// checksums every delivered LU and counts grants. Callbacks arrive on
// the receiver goroutine only.
type receiverAmb struct {
	recvAt []int64
	n      int
	sum    uint64
	grants int
	// first and last bound this advance's deliveries for the
	// hla.deliver span.
	first, last int64
}

func (a *receiverAmb) DiscoverObjectInstance(hla.ObjectHandle, string, string)      {}
func (a *receiverAmb) ReflectAttributeValues(hla.ObjectHandle, hla.Values, float64) {}
func (a *receiverAmb) RemoveObjectInstance(hla.ObjectHandle)                        {}
func (a *receiverAmb) TimeAdvanceGrant(float64)                                     { a.grants++ }

func (a *receiverAmb) ReceiveInteraction(_ string, params hla.Values, _ float64) {
	at := clock()
	if a.n < len(a.recvAt) {
		a.recvAt[a.n] = at
	}
	if a.first < 0 {
		a.first = at
	}
	a.n++
	a.sum += luHash(params)
	a.last = clock()
}

// senderAmb is the node federate's ambassador; it only counts grants.
type senderAmb struct{ grants int }

func (a *senderAmb) DiscoverObjectInstance(hla.ObjectHandle, string, string)      {}
func (a *senderAmb) ReflectAttributeValues(hla.ObjectHandle, hla.Values, float64) {}
func (a *senderAmb) ReceiveInteraction(string, hla.Values, float64)               {}
func (a *senderAmb) RemoveObjectInstance(hla.ObjectHandle)                        {}
func (a *senderAmb) TimeAdvanceGrant(float64)                                     { a.grants++ }

// runRTI runs one lockstep session: an in-process hla.Server on a
// loopback port, a receiver (broker) client and a sender (nodes) client,
// each driven by its own goroutine over its own connection. Every
// logical second the sender sends that second's LUs, each a closed-loop
// request awaiting its ack, then both federates request the time
// advance. With traced set every client call is recorded as spans and
// the wire codec is replayed afterwards under wire.encode/wire.decode.
func runRTI(stream [][]luRec, traced bool) (out rtiOut, err error) {
	var mainRec, sendRec, recvRec *recorder
	total := 0
	for _, s := range stream {
		total += len(s)
	}
	var sendCalls, sendAdv, recvAdv []float64
	if traced {
		mainRec = newRecorder(threadMain)
		sendRec = newRecorder(threadSender)
		recvRec = newRecorder(threadReceiver)
		mainRec.reserve(2*len(stream) + 2)
		sendRec.reserve(2 * len(stream))
		recvRec.reserve(2 * len(stream))
		sendCalls = make([]float64, 0, total)
		sendAdv = make([]float64, 0, len(stream))
		recvAdv = make([]float64, 0, len(stream))
	}

	rti := hla.NewRTI()
	if err := rti.CreateFederation(federation); err != nil {
		return out, err
	}
	srv, err := hla.NewServer(rti, "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close server: %w", cerr)
		}
		<-served
	}()
	addr := srv.Addr().String()

	root := mainRec.begin(spanRun, -1)
	sp := mainRec.begin(spanHLASetup, root)
	start := clock()
	recvAmb := &receiverAmb{recvAt: make([]int64, total), first: -1}
	sendAmb := &senderAmb{}
	recv, err := hla.Dial(addr)
	if err != nil {
		return out, err
	}
	defer func() { _ = recv.Close() }()
	if err := recv.Join(federation, "broker", lookahead, recvAmb); err != nil {
		return out, err
	}
	if err := recv.SubscribeInteractionClass(luClass); err != nil {
		return out, err
	}
	send, err := hla.Dial(addr)
	if err != nil {
		return out, err
	}
	defer func() { _ = send.Close() }()
	if err := send.Join(federation, "nodes", lookahead, sendAmb); err != nil {
		return out, err
	}
	if err := send.PublishInteractionClass(luClass); err != nil {
		return out, err
	}
	out.setup = since(start)
	mainRec.end(sp, 4)

	sendAt := make([]int64, total)
	var sendSum uint64
	var sendErr, recvErr error
	wchar0, err := readWchar()
	if err != nil {
		return out, err
	}
	start = clock()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		k := 0
		for step, lus := range stream {
			t := float64(step + 1)
			sp := sendRec.begin(spanHLASend, -1)
			for _, l := range lus {
				v := encodeLU(l)
				sendAt[k] = clock()
				if err := send.SendInteraction(luClass, v, t); err != nil {
					sendErr = fmt.Errorf("send at t=%v: %w", t, err)
					_ = send.Close() // the RTI resigns the sender, so the receiver still finishes
					return
				}
				if traced {
					sendCalls = append(sendCalls, float64(clock()-sendAt[k]))
				}
				sendSum += luHash(v)
				k++
			}
			sendRec.end(sp, len(lus))
			sp = sendRec.begin(spanHLAAdvance, -1)
			a0 := clock()
			if err := send.TimeAdvanceRequest(t); err != nil {
				sendErr = fmt.Errorf("sender advance to %v: %w", t, err)
				_ = send.Close()
				return
			}
			sendRec.end(sp, 1)
			if traced {
				sendAdv = append(sendAdv, float64(clock()-a0))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for step := range stream {
			t := float64(step + 1)
			recvAmb.first = -1
			sp := recvRec.begin(spanHLAAdvance, -1)
			a0 := clock()
			before := recvAmb.n
			if err := recv.TimeAdvanceRequest(t); err != nil {
				recvErr = fmt.Errorf("receiver advance to %v: %w", t, err)
				_ = recv.Close()
				return
			}
			recvRec.end(sp, 1)
			if traced {
				recvAdv = append(recvAdv, float64(clock()-a0))
				if got := recvAmb.n - before; got > 0 {
					recvRec.spans = append(recvRec.spans, span{
						Name: spanHLADeliver, Start: recvAmb.first, End: recvAmb.last,
						Parent: sp, Calls: int64(got), Thread: threadReceiver,
					})
				}
			}
		}
	}()
	wg.Wait()
	out.wall = since(start)
	wchar1, err := readWchar()
	if err != nil {
		return out, err
	}
	if err := errors.Join(sendErr, recvErr); err != nil {
		return out, err
	}
	if err := recv.Resign(); err != nil {
		return out, fmt.Errorf("receiver resign: %w", err)
	}
	if err := send.Resign(); err != nil {
		return out, fmt.Errorf("sender resign: %w", err)
	}

	out.delivered = recvAmb.n
	// Two joins, publish, subscribe and two resigns, besides the
	// sends and both federates' advances.
	out.requests = 6 + total + 2*len(stream)
	out.wireBytes = wchar1 - wchar0
	for k := 0; k < min(out.delivered, total); k++ {
		out.latencies = append(out.latencies, float64(recvAmb.recvAt[k]-sendAt[k]))
	}
	if out.delivered != total {
		out.failures = append(out.failures, fmt.Sprintf("delivered %d LUs, sent %d", out.delivered, total))
	}
	if recvAmb.sum != sendSum {
		out.failures = append(out.failures, fmt.Sprintf("payload checksum %x delivered, %x sent", recvAmb.sum, sendSum))
	}
	if sendAmb.grants != len(stream) || recvAmb.grants != len(stream) {
		out.failures = append(out.failures, fmt.Sprintf("grants sender %d, receiver %d; want %d each",
			sendAmb.grants, recvAmb.grants, len(stream)))
	}
	if traced {
		if out.frameBytes, err = replayCodec(mainRec, root, stream); err != nil {
			return out, err
		}
		mainRec.end(root, 1)
		out.spans = mergeSpans(mainRec, sendRec, recvRec)
		out.sendCalls = sendCalls
		out.advanceCalls = append(sendAdv, recvAdv...)
	}
	return out, nil
}

// msgInteraction is the RTI protocol's interaction request type byte.
const msgInteraction = 8

// replayCodec re-encodes every LU of the stream as the client frames an
// interaction request, through wire.Encoder and wire.WriteFrameTC into
// a buffer, then decodes the frames back with wire.ReadFrameTC and
// wire.Decoder, one span per logical second for each direction. It
// returns the mean frame size in bytes.
func replayCodec(rec *recorder, parent int, stream [][]luRec) (float64, error) {
	var buf bytes.Buffer
	var e wire.Encoder
	frames := 0
	for step, lus := range stream {
		t := float64(step + 1)
		sp := rec.begin(spanEncode, parent)
		for _, l := range lus {
			e.Reset()
			e.PutByte(msgInteraction)
			e.PutString(luClass)
			e.PutFloat64(t)
			e.PutValues(encodeLU(l))
			_ = wire.WriteFrameTC(&buf, e.Bytes(), wire.TraceContext{}) // bytes.Buffer writes never fail
		}
		rec.end(sp, len(lus))
		frames += len(lus)
	}
	bytesOut := buf.Len()
	for _, lus := range stream {
		sp := rec.begin(spanDecode, parent)
		for range lus {
			payload, _, err := wire.ReadFrameTC(&buf)
			if err != nil {
				return 0, fmt.Errorf("codec replay: %w", err)
			}
			d := wire.NewDecoder(payload)
			d.Byte()
			_ = d.String()
			d.Float64()
			_ = d.Values()
			if err := d.Err(); err != nil {
				return 0, fmt.Errorf("codec replay: %w", err)
			}
		}
		rec.end(sp, len(lus))
	}
	return ratio(bytesOut, frames), nil
}

// readWchar returns the bytes this process has passed to write system
// calls so far (the wchar line of /proc/self/io): over the lockstep
// window, the socket bytes of both federates and the server.
func readWchar() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("read write counter: %w", err)
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read write counter: %w", err)
	}
	return 0, errors.New("read write counter: no wchar line in /proc/self/io")
}
