package obs

// TickLocal batches one pipeline's hot-path counts between flushes.
// The fields are plain (non-atomic) integers the engine's per-node
// stages bump unconditionally — a plain add is cheaper than even the
// disabled-path atomic load of Counter.Inc, and because every pipeline
// owns a private TickLocal there is no cache-line ping-pong between
// parallel campaign workers. Flush publishes the batch into the global
// atomic instruments once per tick, and only when observability is
// enabled; until then the batch keeps accumulating, so a mid-run enable
// reports run-cumulative totals, matching counter semantics.
type TickLocal struct {
	// Offered, Sent and Filtered mirror the filter stage's verdicts.
	Offered, Sent, Filtered uint64
	// BrokerReceived counts LUs delivered to the lane's broker.
	BrokerReceived uint64
	// ChurnLeft and ChurnRejoined mirror the churn stage.
	ChurnLeft, ChurnRejoined uint64
	// Distance and DTH are local histograms for the filter's
	// displacement and threshold distributions. Unlike the counters,
	// histogram scans are gated at the record site (they cost a bounds
	// walk), so they hold data only while observability is enabled.
	Distance, DTH LocalHist
}

// Init binds the local histograms to their global destinations and
// allocates their bucket arrays. The engine calls it once per pipeline
// from its cold setup path; Observe on an unbound LocalHist is a no-op.
func (t *TickLocal) Init() {
	t.Distance.bind(FilterDistance)
	t.DTH.bind(FilterDTH)
}

// Flush publishes the batch into the global registry and zeroes it.
// Call once per tick, gated on Enabled; the whole batch costs a couple
// dozen atomic adds regardless of node count.
func (t *TickLocal) Flush() {
	Ticks.add(1)
	flushCount(LUOffered, &t.Offered)
	flushCount(LUSent, &t.Sent)
	flushCount(LUFiltered, &t.Filtered)
	flushCount(BrokerReceived, &t.BrokerReceived)
	flushCount(ChurnLeft, &t.ChurnLeft)
	flushCount(ChurnRejoined, &t.ChurnRejoined)
	t.Distance.flush()
	t.DTH.flush()
}

// Merge folds src — one region shard's batch — into t and zeroes src
// for reuse. The sharded engine gives every shard a private TickLocal
// so the worker stage stays contention-free, then merges them into the
// pipeline's master batch in stable shard order before the single
// per-tick Flush.
func (t *TickLocal) Merge(src *TickLocal) {
	t.Offered += src.Offered
	t.Sent += src.Sent
	t.Filtered += src.Filtered
	t.BrokerReceived += src.BrokerReceived
	t.ChurnLeft += src.ChurnLeft
	t.ChurnRejoined += src.ChurnRejoined
	src.Offered, src.Sent, src.Filtered = 0, 0, 0
	src.BrokerReceived = 0
	src.ChurnLeft, src.ChurnRejoined = 0, 0
	t.Distance.merge(&src.Distance)
	t.DTH.merge(&src.DTH)
}

func flushCount(c *Counter, n *uint64) {
	if *n > 0 {
		c.add(*n)
		*n = 0
	}
}

// LocalHist accumulates histogram observations with plain arithmetic
// for one pipeline, merging into its bound global Histogram on flush.
type LocalHist struct {
	h      *Histogram
	counts []uint64 // len(bounds)+1, same layout as the global
	sum    float64
	n      uint64
}

func (l *LocalHist) bind(h *Histogram) {
	l.h = h
	if len(l.counts) != len(h.counts) {
		l.counts = make([]uint64, len(h.counts))
	}
}

// Observe records one value. Plain adds only — the method runs on every
// tick and must stay alloc-free (TestZeroAllocTick).
func (l *LocalHist) Observe(v float64) {
	if l.h == nil {
		return
	}
	l.counts[l.h.bucket(v)]++
	l.sum += v
	l.n++
}

// merge folds src's local accumulation into l and zeroes src. Both
// sides must be bound to the same global Histogram (the sharded engine
// binds every shard's TickLocal through Init); an unbound or empty src
// is a no-op.
func (l *LocalHist) merge(src *LocalHist) {
	if src.h == nil || src.n == 0 || l.h != src.h {
		return
	}
	for i, c := range src.counts {
		if c > 0 {
			l.counts[i] += c
			src.counts[i] = 0
		}
	}
	l.sum += src.sum
	l.n += src.n
	src.sum, src.n = 0, 0
}

func (l *LocalHist) flush() {
	if l.h == nil || l.n == 0 {
		return
	}
	for i, c := range l.counts {
		if c > 0 {
			l.h.counts[i].Add(c)
			l.counts[i] = 0
		}
	}
	l.h.n.Add(l.n)
	l.h.sum.Add(l.sum)
	l.n = 0
	l.sum = 0
}
