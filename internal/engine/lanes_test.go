package engine

import (
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/sanitize"
	"github.com/mobilegrid/adf/internal/sim"
)

// adfFactoryAt is adfFactory at another DTH factor.
func adfFactoryAt(factor float64) func() (filter.Filter, error) {
	return func() (filter.Filter, error) {
		cfg := core.DefaultConfig()
		cfg.ReclusterInterval = 5
		cfg.DTHFactor = factor
		return core.New(cfg)
	}
}

// brokerDigest folds a lane's two broker DBs and counters.
func brokerDigest(ln Lane) uint64 {
	d := sanitize.NewDigest()
	ln.NoLE.DigestState(&d)
	ln.WithLE.DigestState(&d)
	return d.Sum()
}

// TestLanesMatchSeparatePipelines: a pipeline of three lanes — the
// ideal filter, an ADF and a 1.25av factor view of that ADF's front —
// must give each lane's observer exactly the event stream, OnTick
// included, and leave each lane's brokers in exactly the state that a
// one-lane pipeline of the same filter does, in both partitions, with
// gateway drops and churn on.
func TestLanesMatchSeparatePipelines(t *testing.T) {
	const (
		seed  = 19
		ticks = 60
		drop  = 0.2
	)
	churn := [2]float64{0.02, 0.3}
	singles := []func() (filter.Filter, error){idealFactory, adfFactory, adfFactoryAt(1.25)}
	for _, workers := range []int{0, 2} {
		var wantStream, wantBrokers []uint64
		for _, mk := range singles {
			p := newTestSharded(t, seed, drop, churn, workers, mk)
			obs := newStreamObserver()
			p.Lanes[0].Observer = obs
			if err := p.Run(sim.New(), ticks); err != nil {
				t.Fatal(err)
			}
			wantStream = append(wantStream, obs.d.Sum())
			wantBrokers = append(wantBrokers, brokerDigest(p.Lanes[0]))
		}

		p := newTestSharded(t, seed, drop, churn, workers, idealFactory)
		p.NewFilters = func() ([]filter.Filter, error) {
			f, err := adfFactory()
			if err != nil {
				return nil, err
			}
			a := f.(*core.ADF)
			return []filter.Filter{filter.NewIdealLU(), a, a.At(1.25)}, nil
		}
		observers := make([]*streamObserver, len(singles))
		p.Lanes = p.Lanes[:0]
		for l := range observers {
			observers[l] = newStreamObserver()
			p.Lanes = append(p.Lanes, Lane{NoLE: newBroker(), WithLE: newBroker(), Observer: observers[l]})
		}
		if err := p.Run(sim.New(), ticks); err != nil {
			t.Fatal(err)
		}
		if p.Churn.AbsentCount() == 0 {
			t.Errorf("workers=%d: churn never removed a node", workers)
		}
		for l, ob := range observers {
			if got := ob.d.Sum(); got != wantStream[l] {
				t.Errorf("workers=%d lane %d: observer stream %#016x, one-lane pipeline %#016x", workers, l, got, wantStream[l])
			}
			if got := brokerDigest(p.Lanes[l]); got != wantBrokers[l] {
				t.Errorf("workers=%d lane %d: broker digest %#016x, one-lane pipeline %#016x", workers, l, got, wantBrokers[l])
			}
		}
		if len(p.ShardFilters()[0]) != len(singles) {
			t.Errorf("workers=%d: shard 0 holds %d filters, want one per lane", workers, len(p.ShardFilters()[0]))
		}
	}
}

// TestLanesFilterCountChecked: a NewFilters that returns the wrong
// number of filters fails the build with an error.
func TestLanesFilterCountChecked(t *testing.T) {
	p := newTestSharded(t, 3, 0, [2]float64{}, 0, idealFactory)
	p.Lanes = append(p.Lanes, Lane{NoLE: newBroker(), WithLE: newBroker()})
	if err := p.Run(sim.New(), 1); err == nil {
		t.Error("one filter for two lanes accepted")
	}
}

func newBroker() *broker.Broker { return broker.New(nil) }

// TestLanesJitterMatchInline: a concurrent three-lane pipeline whose
// lane stages are delayed at random points gives every lane's observer
// exactly the event stream, and leaves every lane's brokers in exactly
// the state, of the inline schedule — in both partitions, with gateway
// drops and churn on, over enough ticks that the world stage fills the
// ring and the lanes drain it.
func TestLanesJitterMatchInline(t *testing.T) {
	const ticks = 300
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)
	for _, workers := range []int{0, 2} {
		run := func(concurrent bool) (streams, brokers [3]uint64) {
			var sinks [3]*streamObserver
			var observers [3]Observer
			for l := range sinks {
				sinks[l] = newStreamObserver()
				observers[l] = sinks[l]
			}
			p := newThreeLanes(t, workers, observers)
			p.Concurrent = concurrent
			if err := p.Run(sim.New(), ticks); err != nil {
				t.Fatal(err)
			}
			for l := range sinks {
				streams[l], brokers[l] = sinks[l].d.Sum(), brokerDigest(p.Lanes[l])
			}
			return streams, brokers
		}
		wantStreams, wantBrokers := run(false)
		for seed := int64(1); seed <= 3; seed++ {
			worldWaits, laneWaits := obs.WorldWaits.Value(), obs.LaneWaits.Value()
			SetStageJitter(seed)
			streams, brokers := run(true)
			SetStageJitter(0)
			for l := range streams {
				if streams[l] != wantStreams[l] || brokers[l] != wantBrokers[l] {
					t.Errorf("workers=%d jitter %d lane %d: stream %#016x broker %#016x, inline %#016x %#016x",
						workers, seed, l, streams[l], brokers[l], wantStreams[l], wantBrokers[l])
				}
			}
			t.Logf("workers=%d jitter %d: world waited %d times, lanes %d", workers, seed,
				obs.WorldWaits.Value()-worldWaits, obs.LaneWaits.Value()-laneWaits)
		}
	}
}
