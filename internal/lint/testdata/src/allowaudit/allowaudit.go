// Allowaudit fixture: suppressions are standing claims, and the audit
// flags the ones that rot — stale allows, allows naming no known rule,
// and reason-less allows that cannot be reviewed.
package allowaudit

import "time"

// Fresh suppresses a diagnostic that really fires, with a reason:
// silent.
func Fresh() int64 {
	return time.Now().UnixNano() //adf:allow determinism — fixture: measurement-only helper
}

// NoReason suppresses a real diagnostic but says nothing about why: the
// clock read stays silenced, the bare allow is flagged.
func NoReason() int64 {
	return time.Now().UnixNano() //adf:allow determinism
}

// Stale vouches for a diagnostic that no longer exists — the clock
// read was refactored away and the comment stayed behind: flagged.
func Stale() int64 {
	//adf:allow determinism — fixture: this line stopped reading the clock long ago
	return 42
}

// Misspelled names a rule that does not exist: the allow suppresses
// nothing, so the clock read is still flagged, and the audit reports
// the allow instead of leaving a dead comment behind.
func Misspelled() int64 {
	return time.Now().UnixNano() //adf:allow determinsm — fixture: misspelled rule name
}
