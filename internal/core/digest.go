package core

import "github.com/mobilegrid/adf/internal/sanitize"

// DigestState implements engine.StateDigester: it folds the front's
// clustering — every cluster's identity, size and cached
// representative, in ascending cluster-ID order — plus the tracked-node
// count into d, so the per-tick state digest covers the filter's
// internal state, not just its transmit decisions.
func (a *ADF) DigestState(d *sanitize.Digest) {
	d.WriteInt(a.f.live)
	for _, c := range a.f.clusters.Clusters() {
		d.WriteInt(int(c.ID()))
		d.WriteInt(c.Size())
		d.WriteFloat64(c.MeanSpeed())
		d.WriteFloat64(c.MeanHeading())
	}
}
