package hla

import (
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

// TestBlockArena checks the sharing discipline of the sender's arena:
// every block it carves is capped at its own length, so an append to
// one reallocates instead of overwriting the next; blocks keep their
// bytes when later ones fill the chunk and start new ones; a block
// larger than a chunk gets a chunk of its own; and an encoded block is
// PutValues' encoding.
func TestBlockArena(t *testing.T) {
	var a blockArena
	var blocks, want [][]byte
	keep := func(b, w []byte) {
		t.Helper()
		if cap(b) != len(b) {
			t.Fatalf("block of %d bytes has cap %d", len(b), cap(b))
		}
		blocks = append(blocks, b)
		want = append(want, bytes.Clone(w))
	}
	for i := range 3 * blockChunk / 100 {
		src := bytes.Repeat([]byte{byte(i)}, 100)
		keep(a.copy(src), src)
		src[0] ^= 0xFF // the caller may reuse its bytes
	}
	big := bytes.Repeat([]byte{0xB1}, blockChunk+1)
	keep(a.copy(big), big)
	v := Values{"y": {2}, "x": {1}, "node": {0, 7}}
	var e wire.Encoder
	e.PutValues(v)
	keep(a.encode(v), e.Bytes())
	for _, b := range blocks {
		_ = append(b, 0xEE)
	}
	for i, b := range blocks {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("block %d changed after later carves and appends", i)
		}
	}
}

// readTap records every byte a connection reads.
type readTap struct {
	net.Conn

	mu  sync.Mutex
	got []byte
}

func (c *readTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.got = append(c.got, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *readTap) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.got)
}

// rawValues encodes a values block entry by entry, as given: keys may
// be out of order or repeated.
func rawValues(kv ...string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(kv)/2))
	for _, s := range kv {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// TestTCPInteractionNonCanonicalBlock sends a hand-built interaction
// frame whose run holds blocks with parameter keys out of order or
// repeated, as a foreign client might, among canonical ones. Every
// receiver, over TCP and in process, must get the maps, in order, that
// decoding each block gives, and the remote receiver one receive frame
// whose blocks are what re-encoding each map with PutValues gives: the
// server canonicalises the bad blocks and forwards their canonical
// neighbours byte for byte. Malformed runs — a count of 0, a count the
// payload cannot hold, bytes after the last block — are answered with
// an error reply and deliver nothing.
func TestTCPInteractionNonCanonicalBlock(t *testing.T) {
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rti, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	addr := srv.Addr().String()

	send, _ := dialJoin(t, addr, "send")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &readTap{Conn: conn}
	remote := newClient(tap)
	t.Cleanup(func() { _ = remote.Close() })
	remoteRec := &recorder{}
	if err := remote.Join("test", "remote", 1, remoteRec); err != nil {
		t.Fatal(err)
	}
	local, localRec := join(t, rti, "local")
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []lockstepFed{remote, local} {
		if err := f.SubscribeInteractionClass("LU"); err != nil {
			t.Fatal(err)
		}
	}

	blocks := [][]byte{
		rawValues("a", "1", "b", "2"), // canonical: forwarded as sent
		rawValues("y", "2", "x", "1", "node", "7"),
		rawValues("node", "8", "x", "3"),
		rawValues("x", "first", "a", "3", "x", "second"),
		rawValues("a", "1", "a", "1"),
		rawValues(), // canonical and empty
	}
	// sendRun sends the run of blocks, counted as count, with extra bytes
	// after it, as one interaction frame at time 1.
	sendRun := func(count int, blocks [][]byte, extra ...byte) error {
		e := send.encode(msgInteraction)
		e.PutString("LU")
		e.PutFloat64(1)
		e.PutCount(count)
		for _, b := range blocks {
			e.PutRaw(b)
		}
		e.PutRaw(extra)
		return send.call(obs.OpInteraction, 0)
	}
	for _, c := range []struct {
		name   string
		count  int
		blocks [][]byte
		extra  []byte
		want   error
	}{
		{"count 0", 0, nil, nil, wire.ErrMalformed},
		{"count 0 before a block", 0, blocks[:1], nil, wire.ErrMalformed},
		{"count past the blocks", 3, blocks[:2], nil, wire.ErrShortBuffer},
		{"count past the payload", 1 << 20, blocks, nil, wire.ErrShortBuffer},
		{"bytes after the last block", 2, blocks[:2], []byte{0}, wire.ErrMalformed},
	} {
		if err := sendRun(c.count, c.blocks, c.extra...); err == nil || !strings.Contains(err.Error(), c.want.Error()) {
			t.Errorf("%s: %v, want an error reply for %v", c.name, err, c.want)
		}
	}
	if err := sendRun(len(blocks), blocks); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, f := range []lockstepFed{send, remote, local} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.TimeAdvanceRequest(1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var e wire.Encoder
	e.PutByte(msgReceive)
	e.PutString("LU")
	e.PutFloat64(1)
	e.PutCount(len(blocks))
	for name, rec := range map[string]*recorder{"remote": remoteRec, "local": localRec} {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.interactions) != len(blocks) {
			t.Fatalf("%s receiver got %d interactions, want %d", name, len(rec.interactions), len(blocks))
		}
	}
	for i, block := range blocks {
		d := wire.NewDecoder(block)
		want := Values(d.Values())
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		for name, rec := range map[string]*recorder{"remote": remoteRec, "local": localRec} {
			if got := rec.interactions[i].values; !equalValues(got, want) {
				t.Errorf("block %d: %s receiver got %v, want %v", i, name, got, want)
			}
		}
		if canonical := wire.AppendValues(nil, want); i == 0 || i == 2 || i == len(blocks)-1 {
			if !bytes.Equal(canonical, block) {
				t.Fatalf("block %d is not canonical: the test's premise is wrong", i)
			}
		}
		e.PutValues(want)
	}
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tap.bytes(), frame.Bytes()) {
		t.Errorf("the remote receiver's stream lacks the canonical receive frame %x", frame.Bytes())
	}
}

// TestDeliveredValuesOwnedInProcess checks that in-process receivers
// each own the Values they are delivered, whether the interaction was
// sent in process or over TCP: the RTI shares one parameter block per
// interaction, but no receiver may share a map or a value array with
// another, or with the sender. One receiver modifies every delivered
// value, by append and in place; the other's must not change.
func TestDeliveredValuesOwnedInProcess(t *testing.T) {
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rti, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })

	tcpSend, _ := dialJoin(t, srv.Addr().String(), "tcpSend")
	localSend, _ := join(t, rti, "localSend")
	ambs := []*keepAmb{{}, {}}
	feds := []lockstepFed{tcpSend, localSend}
	for i, amb := range ambs {
		f, err := rti.Join("test", []string{"a", "b"}[i], 1, amb)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SubscribeInteractionClass("LU"); err != nil {
			t.Fatal(err)
		}
		feds = append(feds, f)
	}
	var want []Values
	for i, s := range []lockstepFed{tcpSend, localSend} {
		if err := s.PublishInteractionClass("LU"); err != nil {
			t.Fatal(err)
		}
		for n := range 20 {
			v := ownedParams(100*i + n)
			if err := s.SendInteraction("LU", v, float64(1+i)); err != nil {
				t.Fatal(err)
			}
			want = append(want, cloneForTest(v))
			for _, b := range v {
				clear(b) // the sender's map is its own again
			}
		}
	}
	var wg sync.WaitGroup
	for _, f := range feds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.TimeAdvanceRequest(2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, amb := range ambs {
		if got := amb.all(); len(got) != len(want) || !slices.EqualFunc(got, want, equalValues) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	for _, v := range ambs[0].all() {
		for k, b := range v {
			_ = append(b, 0xEE)
			for j := range b {
				b[j] ^= 0xFF
			}
			v[k+"!"] = nil
		}
	}
	if got := ambs[1].all(); !slices.EqualFunc(got, want, equalValues) {
		t.Fatalf("one receiver's changes show in the other's Values: %v, want %v", got, want)
	}
}

// TestInteractionSubscribersTracked checks the per-class fan-out list:
// it holds each live subscriber once, in handle order, whatever order
// they subscribed in and however often; a resigned federate leaves it;
// a sender subscribed to its own class is not delivered its own
// interaction; and a send no other federate subscribes to copies
// nothing into the sender's arena.
func TestInteractionSubscribersTracked(t *testing.T) {
	rti := newFederation(t)
	send, sendRec := join(t, rti, "send")
	a, aRec := join(t, rti, "a")
	b, bRec := join(t, rti, "b")
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := send.SendInteraction("LU", Values{"x": {1}}, 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Federate{b, send, a, b} {
		if err := f.SubscribeInteractionClass("LU"); err != nil {
			t.Fatal(err)
		}
	}
	subs := func() []FederateHandle {
		send.fed.mu.Lock()
		defer send.fed.mu.Unlock()
		var hs []FederateHandle
		for _, s := range send.fed.interactionSubs["LU"] {
			hs = append(hs, s.handle)
		}
		return hs
	}
	if got, want := subs(), []FederateHandle{send.Handle(), a.Handle(), b.Handle()}; !slices.Equal(got, want) {
		t.Fatalf("subscribers %v, want %v", got, want)
	}
	send.fed.mu.Lock()
	carved := len(send.st.arena.buf)
	send.fed.mu.Unlock()
	if carved != 0 {
		t.Errorf("a send with no subscribers carved %d arena bytes", carved)
	}
	if err := send.SendInteraction("LU", Values{"x": {2}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Resign(); err != nil {
		t.Fatal(err)
	}
	if got, want := subs(), []FederateHandle{send.Handle(), b.Handle()}; !slices.Equal(got, want) {
		t.Fatalf("subscribers after a resign %v, want %v", got, want)
	}
	advanceBoth(t, send, b, 3)
	if len(sendRec.interactions) != 0 || len(aRec.interactions) != 0 || len(bRec.interactions) != 1 {
		t.Errorf("delivered %d to the sender, %d to the resigned federate and %d to b; want 0, 0 and 1",
			len(sendRec.interactions), len(aRec.interactions), len(bRec.interactions))
	}
}
