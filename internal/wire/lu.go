package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A location update (LU) travels as the parameters of one interaction:
// "node", the node ID, and "x" and "y", the position's IEEE-754 bits,
// each 8 bytes big-endian. The federate drivers send and read LUs in
// this layout.

// EncodeLU returns the parameters of node's LU at (x, y). The three
// values share one backing array, each capped at its own length.
func EncodeLU(node int, x, y float64) map[string][]byte {
	b := make([]byte, 0, 24)
	b = binary.BigEndian.AppendUint64(b, uint64(node))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(y))
	return map[string][]byte{"node": b[0:8:8], "x": b[8:16:16], "y": b[16:24:24]}
}

// DecodeLU reads the LU EncodeLU wrote. A missing value or one that is
// not 8 bytes long is an ErrMalformed; other parameters are ignored.
func DecodeLU(params map[string][]byte) (node int, x, y float64, err error) {
	for _, k := range [...]string{"node", "x", "y"} {
		if n := len(params[k]); n != 8 {
			return 0, 0, 0, fmt.Errorf("%w: LU parameter %q is %d bytes, want 8", ErrMalformed, k, n)
		}
	}
	return int(binary.BigEndian.Uint64(params["node"])),
		math.Float64frombits(binary.BigEndian.Uint64(params["x"])),
		math.Float64frombits(binary.BigEndian.Uint64(params["y"])), nil
}
