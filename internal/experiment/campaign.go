package experiment

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/mobilegrid/adf/internal/engine"
)

// The campaign layer schedules independent simulations — the ideal
// baseline, each DTH factor, each seed, each scale point — on a bounded
// worker pool and memoizes completed campaigns by config fingerprint, so
// regenerating every figure of the paper costs exactly one campaign.

// simulations counts full simulations executed by this process. Tests and
// the bench harness read deltas of it to prove how many simulations a
// figure regeneration actually paid for.
var simulations atomic.Uint64

// SimulationCount returns the number of full simulations executed by this
// process so far.
func SimulationCount() uint64 { return simulations.Load() }

// workers resolves the campaign worker-pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runTask names one independent simulation of a campaign.
type runTask struct {
	label string
	cfg   Config
	mk    filterFactory
}

// runAll executes tasks on a bounded worker pool and returns their runs
// in task order. Each run owns private sim.Streams derived from its own
// config seed and a private simulator, so the outcome is bit-for-bit
// identical to sequential execution regardless of the pool size.
func runAll(workers int, tasks []runTask) ([]*Run, error) {
	out := make([]*Run, len(tasks))
	g := engine.NewGroup(workers)
	for i, t := range tasks {
		g.Go(func() error {
			r, err := t.cfg.runFilter(t.mk)
			if err != nil {
				if t.label != "" {
					return fmt.Errorf("%s: %w", t.label, err)
				}
				return err
			}
			out[i] = r
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// campaignTasks lists the campaign's independent runs: the ideal baseline
// plus one ADF run per DTH factor.
func (c Config) campaignTasks() []runTask {
	tasks := []runTask{{label: "ideal", cfg: c, mk: idealFactory}}
	for _, factor := range c.DTHFactors {
		tasks = append(tasks, runTask{
			label: fmt.Sprintf("adf %.2fav", factor),
			cfg:   c,
			mk:    c.adfFactory(factor),
		})
	}
	return tasks
}

// RunUncached executes the campaign without consulting or filling the
// memoization cache: the ideal baseline plus one ADF run per DTH factor,
// concurrently on the worker pool.
func (c Config) RunUncached() (*Results, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	runs, err := runAll(c.workers(), c.campaignTasks())
	if err != nil {
		return nil, err
	}
	return &Results{Config: c, Ideal: runs[0], ADF: runs[1:]}, nil
}

// fingerprint canonicalises every result-affecting field of the config.
// Workers is excluded and ShardWorkers reduced to the partition it
// selects (0 campus, 1 region): worker counts change the execution
// schedule, never the results, so sequential and parallel campaigns
// share one cache entry. RNGMode is dropped too: "" and RNGKeyed name
// the same stream class.
func (c Config) fingerprint() (string, error) {
	c.Workers = 0
	c.ShardWorkers = min(c.ShardWorkers, 1)
	c.RNGMode = ""
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// campaignCache memoizes completed campaigns by config fingerprint, with
// single-flight de-duplication so concurrent callers of the same config
// pay for one campaign between them.
var campaignCache = struct {
	sync.Mutex

	//adf:guardedby Mutex
	entries map[string]*campaignEntry
	//adf:guardedby Mutex
	hits uint64
	//adf:guardedby Mutex
	misses uint64
}{entries: map[string]*campaignEntry{}}

type campaignEntry struct {
	once sync.Once
	res  *Results
	err  error
}

// ResetCampaignCache drops every memoized campaign and zeroes the cache
// statistics. Tests and benchmarks use it to force fresh simulations.
func ResetCampaignCache() {
	campaignCache.Lock()
	defer campaignCache.Unlock()
	campaignCache.entries = map[string]*campaignEntry{}
	campaignCache.hits = 0
	campaignCache.misses = 0
}

// CampaignCacheStats reports memoized campaign reuses (hits, including
// waits on an in-flight identical campaign) and fresh campaigns (misses)
// since the last reset.
func CampaignCacheStats() (hits, misses uint64) {
	campaignCache.Lock()
	defer campaignCache.Unlock()
	return campaignCache.hits, campaignCache.misses
}

// Run executes the core campaign (ideal + ADF at each DTH factor) that
// figures 4–9 are derived from. Campaigns are memoized by config
// fingerprint — regenerating all the figures costs exactly one campaign —
// and the campaign's independent runs execute concurrently on the worker
// pool (Config.Workers). The returned Results are shared across callers
// and must be treated as read-only.
func (c Config) Run() (*Results, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	key, err := c.fingerprint()
	if err != nil {
		// Unreachable with the exported field set; still run, just
		// without memoization.
		return c.RunUncached()
	}
	campaignCache.Lock()
	e, ok := campaignCache.entries[key]
	if ok {
		campaignCache.hits++
	} else {
		e = &campaignEntry{}
		campaignCache.entries[key] = e
		campaignCache.misses++
	}
	campaignCache.Unlock()
	e.once.Do(func() { e.res, e.err = c.RunUncached() })
	if e.err != nil {
		// Do not pin failures: drop the entry so a later attempt retries.
		campaignCache.Lock()
		if campaignCache.entries[key] == e {
			delete(campaignCache.entries, key)
		}
		campaignCache.Unlock()
	}
	return e.res, e.err
}
