package engine

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// stageJitter is the seed of the lane stages' delays; 0 disables them.
var stageJitter atomic.Int64

// SetStageJitter makes the lane stages of every concurrent pipeline
// started afterwards pause at random points — before a tick and after
// each shard — drawing from a generator seeded by seed and the lane
// index; 0 turns the pauses off. It exists for determinism tests: a
// schedule shaken this way must not move one output bit. Production
// code never sets it.
func SetStageJitter(seed int64) { stageJitter.Store(seed) }

// jitter is one lane stage's private delay generator.
type jitter struct{ r *rand.Rand }

// newJitter returns lane's delay generator under seed, or nil when seed
// is 0.
func newJitter(seed int64, lane int) *jitter {
	if seed == 0 {
		return nil
	}
	return &jitter{r: rand.New(rand.NewPCG(uint64(seed), uint64(lane)))} //adf:allow determinism — the draws only time a test's delays; no simulation state reads them
}

// pause delays the calling stage: mostly not at all, often by a yield,
// sometimes by tens of microseconds and rarely by milliseconds — long
// enough for the world stage to fill the ring. A nil jitter returns at
// once.
func (j *jitter) pause() {
	if j == nil {
		return
	}
	switch v := j.r.IntN(256); {
	case v == 0:
		time.Sleep(time.Duration(1+j.r.IntN(4000)) * time.Microsecond)
	case v < 16:
		time.Sleep(time.Duration(1+j.r.IntN(50)) * time.Microsecond)
	case v < 80:
		runtime.Gosched()
	}
}
