//go:build !adfcheck

package engine

import "github.com/mobilegrid/adf/internal/node"

// sanitizerState is empty in the default build; the field it backs in
// Pipeline costs nothing.
type sanitizerState struct{}

// checkTick is a no-op in the default build.
func (st *sanitizerState) checkTick(nodes []*node.Node, samples []Sample, now float64) {}

// sanitizeTick is a no-op in the default build.
func (p *Pipeline) sanitizeTick(now float64) {}
