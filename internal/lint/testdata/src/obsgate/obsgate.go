// Package obsgate exercises the obsgate rule: obs recording calls in
// the instrumented packages must sit lexically inside an enable-gated
// if (a zero test on a clock token, or an Enabled/On-style call), and
// timestamps must come from the shared obs clock rather than time.Now.
// The obs API is stubbed locally; the rule matches callee names.
package obsgate

import "time"

// Stand-ins for the obs package surface.

func Enabled() bool   { return false }
func RPCClock() int64 { return 0 }

func ObserveRPC(start, end int64) {}
func RecordRPC(start, end int64)  {}
func RecordSpan(start int64)      {}

type eventLog struct{}

func (eventLog) On() bool         { return false }
func (eventLog) Now() int64       { return 0 }
func (eventLog) Emit(kind string) {}

// Events mirrors obs.Events.
var Events eventLog

// goodClockToken is the canonical shape: the recording chain sits
// inside a zero test on the clock token.
func goodClockToken() {
	start := RPCClock()
	if start != 0 {
		end := RPCClock()
		ObserveRPC(start, end)
		RecordRPC(start, end)
	}
}

// goodElseBranch records in the else branch of the inverted zero test;
// the gate still lexically encloses the recording.
func goodElseBranch() {
	start := RPCClock()
	if start == 0 {
		return
	} else {
		RecordSpan(start)
	}
}

// goodEnabledCall gates on the boolean API instead of a clock token,
// with the gate drawn in the if's init statement.
func goodEnabledCall() {
	if Enabled() {
		Events.Emit("join")
	}
	if tm := Events.Now(); tm != 0 {
		Events.Emit("resign")
	}
}

// goodNested inherits the gate from an enclosing if through loops and
// blocks.
func goodNested(n int) {
	if Events.On() {
		for i := 0; i < n; i++ {
			Events.Emit("tick")
		}
	}
}

// badUngated records with no gate at all.
func badUngated() {
	Events.Emit("join") // want: recording outside a gated if
}

// badWrongGate has an if, but its condition never consults the enable
// gate — a comparison against a non-zero literal is not the token idiom.
func badWrongGate(n int) {
	start := RPCClock()
	if n > 1 {
		RecordRPC(start, start) // want: condition is not a gate check
	}
}

// badAfterEarlyReturn shows the shape the rule deliberately rejects:
// an early exit guards execution, but the gate no longer lexically
// encloses the recording, so a reader cannot see it is conditional.
func badAfterEarlyReturn() {
	start := RPCClock()
	if start == 0 {
		return
	}
	RecordSpan(start) // want: gate must enclose the recording
}

// badWallClock reads the wall clock directly instead of drawing a
// gated token from the shared obs clock.
func badWallClock() int64 {
	//adf:allow determinism — fixture isolates the obsgate wall-clock diagnostic
	t := time.Now() // want: use the shared obs clock
	//adf:allow determinism — fixture isolates the obsgate wall-clock diagnostic
	return int64(time.Since(t)) // want: use the shared obs clock
}

// allowedWallClock is vouched for: a wall-clock deadline on network
// I/O is policy, not recording cost.
func allowedWallClock() time.Time {
	//adf:allow determinism obsgate — wall-clock deadline policy, not recording cost
	return time.Now().Add(time.Second)
}
