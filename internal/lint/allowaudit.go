package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// AllowAudit keeps the //adf:allow escape hatch honest: a suppression
// is a standing claim that a diagnostic on its lines is deliberate, and
// like any unchecked claim it rots. The audit flags
//
//  1. stale suppressions — an //adf:allow naming a rule that produced
//     no diagnostic anywhere on the comment's covered lines (the group's
//     span plus the line after it). The code it vouched for has been
//     refactored away, or the rule name was wrong from the start;
//     either way the comment now only misleads readers.
//  2. unknown-rule suppressions — an //adf:allow whose first token is
//     not a rule name (a misspelled or retired rule). It suppresses
//     nothing, so without the audit it would be a dead comment.
//  3. reason-less suppressions — an //adf:allow whose rule list has no
//     trailing free text. The reason is the reviewable half of the
//     contract; without it the suppression is indistinguishable from a
//     silencing reflex.
//
// Staleness is only judged for rules that ran: `-rules allowaudit`
// still executes the full analyzer set for fact generation, so the
// audit never calls a suppression stale merely because its rule was
// deselected.
//
// AllowAudit has no Run/RunModule hook: it needs the post-filter usage
// bits of every other analyzer, so lint.Run invokes auditAllows after
// suppression filtering.
var AllowAudit = &Analyzer{
	Name: "allowaudit",
	Doc:  "flag stale //adf:allow suppressions (no matching diagnostic on their lines), suppressions naming no known rule, and suppressions without a reason",
	Explain: `allowaudit audits the escape hatches themselves.

Suppression grammar (own line above, or trailing on the line):
    //adf:allow <rule> [<rule>...] — reason

Flagged: an //adf:allow whose named rule produced no diagnostic in its
covered span — a stale suppression hiding nothing — an //adf:allow that
names no known rule, and any //adf:allow without a free-text reason
after the rule list.`,
}

// auditAllows reports the stale, unknown-rule and reason-less entries of
// a run's allow index. ran lists the analyzers that executed; rules
// outside it are not judged for staleness.
func auditAllows(fset *token.FileSet, allows *allowSet, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     fset.Position(pos),
			Rule:    AllowAudit.Name,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, e := range allows.entries {
		if len(e.rules) == 0 {
			report(e.pos, "//adf:allow names no known rule: correct the rule name (adflint -list prints them) or delete the suppression")
			continue
		}
		var stale []string
		for _, r := range e.rules {
			if ran[r] && !e.used[r] {
				stale = append(stale, r)
			}
		}
		if len(stale) > 0 {
			report(e.pos, "stale //adf:allow %s: no %s diagnostic on the covered lines — delete the suppression",
				strings.Join(stale, " "), strings.Join(stale, "/"))
		}
		if !e.hasReason {
			report(e.pos, "//adf:allow %s has no reason: append \"— why\" so the suppression is reviewable", strings.Join(e.rules, " "))
		}
	}
	return out
}
