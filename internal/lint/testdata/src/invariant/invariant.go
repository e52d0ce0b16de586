// Package invariant exercises the invariant analyzer: sanitize.Check
// calls must carry an //adf:invariant annotation, and annotations must
// cover a check and follow the //adf:invariant <kebab-case-name> — <why>
// grammar.
package invariant

import "github.com/mobilegrid/adf/internal/sanitize"

// limit bounds the value the fixture's checks guard.
const limit = 1e9

// Tick drives one annotated and one unannotated check.
func Tick(x float64) {
	//adf:invariant finite-x — fixture: x must stay finite.
	sanitize.CheckFinite("fixture: x", x)
	sanitize.CheckFinite("fixture: x again", x)
}

//adf:invariant stale-name — fixture: covers no check, so it is flagged.
func idle() {}

//adf:invariant BadName breaks the kebab-case grammar.
func idle2() {}

var _ = idle
var _ = idle2
