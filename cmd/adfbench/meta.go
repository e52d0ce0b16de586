package main

import (
	"runtime"
	"runtime/debug"

	"github.com/mobilegrid/adf/internal/experiment"
)

// RunMeta identifies the environment a BENCH_*.json report was produced
// in, so numbers from different machines, toolchains or build
// configurations are never compared as like-for-like.
type RunMeta struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's processor limit at report time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// BuildTags are the -tags the binary was built with, empty for a
	// default build.
	BuildTags string `json:"build_tags,omitempty"`
	// ShardWorkers is the pipeline partition the run was configured with
	// (0 = campus partition, N >= 1 = region partition on N workers).
	ShardWorkers int `json:"shard_workers,omitempty"`
}

// runMeta captures the current environment and cfg's worker setup.
func runMeta(cfg experiment.Config) RunMeta {
	return RunMeta{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		BuildTags:    buildTags(),
		ShardWorkers: cfg.ShardWorkers,
	}
}

// buildTags extracts the -tags build setting recorded in the binary.
func buildTags() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "-tags" {
			return s.Value
		}
	}
	return ""
}
