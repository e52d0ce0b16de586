package broker

import (
	"fmt"
	"sort"

	"github.com/mobilegrid/adf/internal/geo"
)

// The query side of the location DB: the grid broker tracks mobile nodes
// precisely so it can pick resources by location — dispatch work to the
// nodes nearest a data source, or count the capacity inside a coverage
// area. These queries run on the broker's *believed* locations, which is
// exactly why the paper cares about the location error the ADF induces.

// Candidate is one query result.
type Candidate struct {
	// Entry is the node's believed location record.
	Entry
	// Dist is the distance from the query point, in metres.
	Dist float64
}

// Nearest returns the k nodes whose believed locations are closest to p,
// nearest first. Fewer than k are returned when the DB is smaller. k
// must be positive.
func (b *Broker) Nearest(p geo.Point, k int) ([]Candidate, error) {
	if k <= 0 {
		return nil, fmt.Errorf("broker: k must be positive, got %d", k)
	}
	cands := b.candidates(p)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Dist < cands[j].Dist {
			return true
		}
		if cands[j].Dist < cands[i].Dist {
			return false
		}
		return cands[i].Node < cands[j].Node
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands, nil
}

// Within returns every node believed to be within radius metres of p,
// nearest first. radius must be non-negative.
func (b *Broker) Within(p geo.Point, radius float64) ([]Candidate, error) {
	if radius < 0 {
		return nil, fmt.Errorf("broker: negative radius %v", radius)
	}
	var out []Candidate
	for _, c := range b.candidates(p) {
		if c.Dist <= radius {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist < out[j].Dist {
			return true
		}
		if out[j].Dist < out[i].Dist {
			return false
		}
		return out[i].Node < out[j].Node
	})
	return out, nil
}

func (b *Broker) candidates(p geo.Point) []Candidate {
	out := make([]Candidate, 0, b.NodeCount())
	b.records.Range(func(node int, r *record) bool {
		if !r.hasReport {
			return true
		}
		e := r.believed
		e.Node = node
		out = append(out, Candidate{Entry: e, Dist: e.Pos.Dist(p)})
		return true
	})
	return out
}
