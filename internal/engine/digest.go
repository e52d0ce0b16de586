package engine

import "github.com/mobilegrid/adf/internal/sanitize"

// StateDigester is implemented by pipeline components that can fold
// their internal state into a per-tick checksum. The engine asks each
// shard's filters for it when comparing runs at different worker counts;
// the lanes' brokers implement the same method directly.
type StateDigester interface {
	// DigestState writes the component's state into d in a
	// deterministic order.
	DigestState(d *sanitize.Digest)
}

// StateDigest returns the FNV-1a checksum of the pipeline's full
// simulation state: every node's identity and true position, each
// lane's broker DB and counters, then per shard (in shard order) the
// shard's name, membership and each lane's filter state when the filter
// exposes a digest, and finally the churn population. With one lane it
// is the digest of a single-filter run. Two runs are bit-for-bit
// identical exactly when this digest matches tick for tick;
// experiment.CompareShardDigests drives it across worker counts. On a
// concurrent pipeline it first waits until the lane stages have
// finished every published tick, so it digests the state Tick left.
func (p *Pipeline) StateDigest() uint64 {
	p.Settle()
	d := sanitize.NewDigest()
	for _, n := range p.Nodes {
		d.WriteInt(n.ID())
		pos := n.Pos()
		d.WriteFloat64(pos.X)
		d.WriteFloat64(pos.Y)
	}
	for _, ln := range p.Lanes {
		ln.Broker.DigestState(&d)
	}
	for _, sh := range p.shards {
		d.WriteString(sh.name)
		d.WriteInt(len(sh.members))
		for _, i := range sh.members {
			d.WriteInt(p.Nodes[i].ID())
		}
		for l := range sh.lanes {
			if f, ok := sh.lanes[l].filt.(StateDigester); ok {
				f.DigestState(&d)
			}
		}
	}
	if p.Churn != nil {
		d.WriteInt(p.Churn.AbsentCount())
	}
	return d.Sum()
}
