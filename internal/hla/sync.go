package hla

import (
	"errors"
	"fmt"
)

// Federation synchronization points (HLA 1.3 federation management): a
// federate registers a labelled point, every joined federate is told
// about it, and once every participant reports the point achieved the
// RTI announces the federation synchronized. The mobile-grid federation
// uses one to line up scenario phases (e.g. "population-placed") before
// time stepping begins.

// ErrSyncPointExists is returned when registering a label twice.
var ErrSyncPointExists = errors.New("hla: synchronization point already registered")

// ErrNoSyncPoint is returned for operations on unknown labels.
var ErrNoSyncPoint = errors.New("hla: no such synchronization point")

// SyncAmbassador is the optional extension of Ambassador for federates
// that participate in synchronization points. Federates whose ambassador
// does not implement it still count as participants; they simply do not
// see the announcements.
type SyncAmbassador interface {
	// AnnounceSynchronizationPoint announces a newly registered point.
	AnnounceSynchronizationPoint(label string, tag []byte)
	// FederationSynchronized reports that every participant achieved the
	// point.
	FederationSynchronized(label string)
}

// deliverSync dispatches the synchronization callbacks; plain callbacks
// are handled by callback.deliver.
func deliverSync(c callback, amb Ambassador) {
	sync, ok := amb.(SyncAmbassador)
	if !ok {
		return
	}
	switch c.kind {
	case cbAnnounceSync:
		sync.AnnounceSynchronizationPoint(c.name, c.tag)
	case cbFederationSynced:
		sync.FederationSynchronized(c.name)
	default:
		// Plain callbacks are dispatched by callback.deliver; nothing to
		// do here.
	}
}

// syncPoint is the RTI-side record of one registered point.
type syncPoint struct {
	label        string
	participants map[FederateHandle]bool // joined federates at registration
	achieved     map[FederateHandle]bool
}

// RegisterSynchronizationPoint registers a labelled point. Every live
// federate (including the registrant) is announced the point and becomes
// a participant.
func (f *Federate) RegisterSynchronizationPoint(label string, tag []byte) error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	if f.fed.syncPoints == nil {
		f.fed.syncPoints = make(map[string]*syncPoint)
	}
	if _, ok := f.fed.syncPoints[label]; ok {
		return fmt.Errorf("%w: %q", ErrSyncPointExists, label)
	}
	sp := &syncPoint{
		label:        label,
		participants: make(map[FederateHandle]bool),
		achieved:     make(map[FederateHandle]bool),
	}
	for h, other := range f.fed.federates {
		if other.resigned {
			continue
		}
		sp.participants[h] = true
		other.mailbox.push(callback{kind: cbAnnounceSync, name: label, tag: append([]byte(nil), tag...)})
	}
	f.fed.syncPoints[label] = sp
	return nil
}

// SynchronizationPointAchieved reports this federate has reached the
// point. When the last participant achieves it, every participant gets
// the FederationSynchronized callback and the point is retired.
func (f *Federate) SynchronizationPointAchieved(label string) error {
	f.fed.mu.Lock()
	defer f.fed.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return err
	}
	sp, ok := f.fed.syncPoints[label]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSyncPoint, label)
	}
	if !sp.participants[f.st.handle] {
		return fmt.Errorf("%w: %q (federate %s is not a participant)", ErrNoSyncPoint, label, f.st.name)
	}
	sp.achieved[f.st.handle] = true
	f.fed.completeSyncIfReady(sp)
	return nil
}

// completeSyncIfReady retires a point once every live participant has
// achieved it. Callers must hold fed.mu.
func (fed *Federation) completeSyncIfReady(sp *syncPoint) {
	for h := range sp.participants {
		f, ok := fed.federates[h]
		if !ok || f.resigned {
			continue // resigned participants no longer block the point
		}
		if !sp.achieved[h] {
			return
		}
	}
	for h := range sp.participants {
		if f, ok := fed.federates[h]; ok && !f.resigned {
			f.mailbox.push(callback{kind: cbFederationSynced, name: sp.label})
		}
	}
	delete(fed.syncPoints, sp.label)
}

// reevaluateSyncPoints retires any points unblocked by a resignation.
// Callers must hold fed.mu.
func (fed *Federation) reevaluateSyncPoints() {
	for _, sp := range fed.syncPoints {
		fed.completeSyncIfReady(sp)
	}
}
