//go:build !adfcheck

package engine

import "github.com/mobilegrid/adf/internal/node"

// sanitizerState is empty in the default build; the field it backs in
// Pipeline costs nothing.
type sanitizerState struct{}

// checkClock is a no-op in the default build.
func (st *sanitizerState) checkClock(nodes []*node.Node, now float64) {}

// checkSample is a no-op in the default build.
func (st *sanitizerState) checkSample(s *Sample) {}
