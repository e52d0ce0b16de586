package engine

import (
	"testing"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/sanitize"
	"github.com/mobilegrid/adf/internal/sim"
)

// Event kinds folded into a streamObserver digest.
const (
	evOffered = iota
	evTransmitted
	evError
	evTick
)

// streamObserver folds every observer callback, in arrival order, into
// an FNV-64a digest: the event kind, the node, the sample time's bit
// pattern, the variant and the distance's bit pattern, or for OnTick
// the tick time.
type streamObserver struct {
	d      sanitize.Digest
	events int
}

func newStreamObserver() *streamObserver { return &streamObserver{d: sanitize.NewDigest()} }

func (o *streamObserver) sample(kind int, s Sample) {
	o.events++
	o.d.WriteInt(kind)
	o.d.WriteInt(s.Node)
	o.d.WriteFloat64(s.Time)
}

func (o *streamObserver) OnOffered(s Sample) error {
	o.sample(evOffered, s)
	return nil
}

func (o *streamObserver) OnTransmitted(s Sample) error {
	o.sample(evTransmitted, s)
	return nil
}

func (o *streamObserver) OnError(s Sample, v Variant, dist float64) error {
	o.sample(evError, s)
	o.d.WriteInt(int(v))
	o.d.WriteFloat64(dist)
	return nil
}

func (o *streamObserver) OnTick(now float64) error {
	o.events++
	o.d.WriteInt(evTick)
	o.d.WriteFloat64(now)
	return nil
}

// TestObserverStreamPinned pins the exact observer event stream — every
// callback, its order and its bit patterns — of 60-tick ADF runs. The
// aggregate goldens (summed series, quantiles) cannot see a replay that
// reorders events whose sums happen to agree; this digest can. The
// region partition must produce one stream at every worker count; the
// campus partition clusters campus-wide, so its stream differs. Re-pin
// only on a deliberate semantics change.
func TestObserverStreamPinned(t *testing.T) {
	burst := gateway.BurstConfig{PEnterOutage: 0.05, PExitOutage: 0.2, DropUp: 0.02, DropDown: 1}
	cases := []struct {
		name       string
		churn      [2]float64
		burst      bool
		campus     uint64
		region     uint64
		wantAbsent bool
	}{
		{name: "drops", campus: 0x9978154fb083b55b, region: 0x4831d38a46f7a85f},
		{name: "churn", churn: [2]float64{0.02, 0.3}, campus: 0xafd30e255c730d5e, region: 0xaa9b3a07fe499557, wantAbsent: true},
		{name: "burst", burst: true, campus: 0x8e83bb5df9bf3ce0, region: 0xd4d6776b7a3fdf3f},
	}
	const (
		seed  = 19
		ticks = 60
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 4} {
				p := newTestSharded(t, seed, 0.2, tc.churn, workers, adfFactory)
				if tc.burst {
					net, err := gateway.NewBurstNetworkKeyed(campus.New(), burst, sim.NewKeyed(seed))
					if err != nil {
						t.Fatal(err)
					}
					p.Net = net
				}
				obs := newStreamObserver()
				p.Lanes[0].Observer = obs
				if err := p.Run(sim.New(), ticks); err != nil {
					t.Fatal(err)
				}
				// Every node is offered at most once per tick, then
				// errors and ticks follow: a stream this short has
				// lost events.
				if obs.events < len(p.Nodes)*ticks {
					t.Errorf("workers=%d: %d events, want >= %d", workers, obs.events, len(p.Nodes)*ticks)
				}
				if tc.wantAbsent && p.Churn.AbsentCount() == 0 {
					t.Errorf("workers=%d: churn never removed a node", workers)
				}
				want := tc.region
				if workers == 0 {
					want = tc.campus
				}
				if got := obs.d.Sum(); got != want {
					t.Errorf("workers=%d: observer stream digest %#016x, pinned %#016x", workers, got, want)
				}
			}
		})
	}
}
