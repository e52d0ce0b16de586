// Root bodies of the shardsafe fixture: functions annotated
// //adf:shardstage run concurrently across region shards, so every
// direct write to a package-level variable inside one is an unmerged
// cross-shard write, and so is every unclaimed sequential draw.
package shardsafe

import "github.com/mobilegrid/adf/internal/sim"

// Aggregates that must only be touched by the merge step.
var totalSent int
var perRegion = map[string]int{}
var tallies struct{ sent, dropped int }
var newest *shardLocal

// shardLocal is the per-shard state a stage may mutate freely.
type shardLocal struct {
	sent    int
	byNode  []int
	dropped int
}

// RunShard is a shard stage: shard-context writes are fine, every
// package-level write is flagged — plain assignment, compound
// assignment, increment, map store, field store and pointer store alike.
//
//adf:shardstage
func RunShard(sh *shardLocal, region string, n int) {
	sh.sent += n     // shard-indexed: silent
	sh.byNode[0] = n // shard-indexed: silent
	totalSent += n   // flagged: compound assignment to a global
	perRegion[region] = n
	tallies.sent++
	newest = sh
}

// Merge is not annotated: folding the shard locals into the globals in
// deterministic shard order is exactly the designed idiom.
func Merge(sh *shardLocal) {
	totalSent += sh.sent
	tallies.dropped += sh.dropped
}

// SanctionedWrite shows the escape hatch for synchronized,
// order-independent state. One rule owns the shard-stage write check,
// so the allow names that rule alone; the determinism rule does not
// look inside shard stages.
//
//adf:shardstage
func SanctionedWrite(sh *shardLocal, n int) {
	totalSent += n //adf:allow shardsafe — fixture: atomic counter, order independent
}

// DrawInShard is a shard stage that draws randomness: keyed draws are
// pure functions of (stream, node, tick) and stay silent (the
// streamowner claims below keep that rule satisfied too), while every
// method call on a sequential *sim.RNG stream is flagged — the value a
// sequential draw sees depends on which shard drew first.
//
//adf:shardstage
//adf:owns StreamGatewayDrop StreamOutage — fixture: sole keyed consumer in this package
func DrawInShard(sh *shardLocal, rng *sim.RNG, keyed *sim.Keyed, node int, tick uint64) {
	if keyed.Bool(sim.StreamGatewayDrop, node, tick, 0.5) { // keyed: silent
		sh.dropped++
	}
	sh.sent += int(keyed.Uint64(sim.StreamOutage, node, tick) % 3) // keyed: silent
	if rng.Bool(0.5) {                                             // flagged: sequential draw
		sh.dropped++
	}
	sh.byNode[0] = rng.Intn(8) // flagged: sequential draw
}

// SanctionedDraw shows the sequential-draw escape hatch for call sites
// that provably run outside the concurrent phase.
//
//adf:shardstage
func SanctionedDraw(sh *shardLocal, rng *sim.RNG) {
	sh.sent += rng.Intn(2) //adf:allow shardsafe — fixture: prepass-only branch, runs before shards fork
}

// FreeDraw is not annotated: sequential draws are the designed idiom
// everywhere outside shard stages.
func FreeDraw(rng *sim.RNG) int {
	return rng.Intn(4)
}

// region mirrors a gateway that keeps sequential streams: every draw on
// them is flagged, in the stage and in each helper it reaches.
type region struct {
	rng     *sim.RNG
	aux     *sim.RNG
	dropped int
}

// Collect is a shard stage drawing on a receiver field: flagged, like
// the draw in the helper it reaches.
//
//adf:shardstage
func (r *region) Collect() {
	if r.rng.Bool(0.5) { // flagged: sequential draw
		r.dropped++
	}
	r.advance()
}

// advance is flagged through the chain from Collect.
func (r *region) advance() {
	r.dropped += r.aux.Intn(2)
}
