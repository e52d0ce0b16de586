// Shardsafe fixture: the interprocedural shard-ownership walk. The
// //adf:shardstage roots in this file are clean in their own bodies —
// every violation hides one or two static calls deep (shardstage.go
// covers the root bodies).
package shardsafe

// Package-level aggregates only the merge step may touch.
var total int
var latest []int

// perShard is shard-indexed storage: slot s belongs to shard s alone,
// so writes rooted here cannot cross shards.
//
//adf:shardlocal — one disjoint slot per shard, indexed by ctx.id
var perShard []int

// ctx is the shard context a stage owns outright.
type ctx struct {
	id   int
	sent int
	rows []int
}

// Stage is a clean shard-stage root delegating to helpers: the global
// write in tallyGlobal and the goroutine in fanOut are flagged with
// their call chains, the shard-owned writes stay silent.
//
//adf:shardstage
func Stage(c *ctx, n int) {
	c.sent += n       // receiver-rooted: silent
	c.rows[0] = n     // receiver-rooted: silent
	perShard[c.id]++  // //adf:shardlocal var: silent
	tallyGlobal(c, n) // helper's global write flagged via the chain
	fanOut(c)         // helper's goroutine flagged via the chain
}

// tallyGlobal looks innocent at its declaration — no annotation, no
// intraprocedural rule applies — but Stage reaches it.
func tallyGlobal(c *ctx, n int) {
	c.sent += n // parameter-rooted: silent
	total += n  // flagged: package-level write reachable from Stage
	latest = c.rows
}

// fanOut forks mid-stage: the goroutine escapes the deterministic
// merge, and the closure mutates captured state.
func fanOut(c *ctx) {
	acc := 0
	go func() { // flagged: goroutine reachable from Stage
		acc += c.sent // flagged: write to a variable captured from fanOut
	}()
	_ = acc
}

// Prepass runs before the shards fork; the vouched call site prunes the
// walk, so coldSetup's global write stays silent.
//
//adf:shardstage
func Prepass(c *ctx) {
	//adf:allow shardsafe — fixture: coldSetup runs once before the concurrent phase
	coldSetup(c)
}

func coldSetup(c *ctx) {
	total = 0 // silent: the call site into this helper is vouched for
	c.sent = 0
}

// Sanctioned shows the write-site escape hatch inside a reachable
// helper.
//
//adf:shardstage
func Sanctioned(c *ctx) {
	bumpSanctioned()
}

func bumpSanctioned() {
	total++ //adf:allow shardsafe — fixture: atomic counter, order independent
}
