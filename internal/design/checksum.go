package design

import "math/bits"

// FNV-1a 64 parameters (hash/fnv is not used so the mix stays inlinable
// and allocation-free).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k mod 2^64: the combined effect of k
// FNV-1a steps over zero bytes.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// PlacementChecksum returns an FNV-1a 64 digest of the placement state:
// for every cell, in ID order, the (ID, X, Y, Placed, Orient) tuple — the
// same fields the determinism tests compare byte for byte. Two designs
// with identical cell rosters have equal checksums exactly when their
// placements are identical, so the golden determinism suite pins one
// uint64 per benchmark instead of a full placement dump.
//
// The value is byte-serial FNV-1a over four little-endian 8-byte words
// per cell: ID, X, Y (as two's-complement int64) and flags
// (Orient<<1 | Placed). Over a zero byte an FNV-1a step is a bare
// multiply by the prime (h ^= 0 changes nothing), and multiplication
// mod 2^64 is associative, so the run of zero high bytes of each word is
// folded into one multiply by a power of the prime. The digest is the
// same bit for bit; a cell of small non-negative words — the common
// case — costs 7 multiplies instead of 32. Negative coordinates have
// non-zero sign-extended high bytes and take the full eight steps.
func (d *Design) PlacementChecksum() uint64 {
	h := fnvOffset64
	for i := range d.Cells {
		c := &d.Cells[i]
		flags := uint64(c.Orient) << 1
		if c.Placed {
			flags |= 1
		}
		h = fnvMixWord(h, uint64(c.ID))
		h = fnvMixWord(h, uint64(int64(c.X)))
		h = fnvMixWord(h, uint64(int64(c.Y)))
		if flags < 1<<8 { // every defined Orient: one significant byte
			h = (h ^ flags) * fnvPrimePow[8]
		} else {
			h = fnvMixWord(h, flags)
		}
	}
	return h
}

// fnvMixWord feeds the eight little-endian bytes of v into the FNV-1a
// state h. Only the low bytes up to the last non-zero one (at least one)
// are stepped through; the last step's multiply absorbs the k zero high
// bytes, so it multiplies by fnvPrime64^(1+k). Words below 2^16 — the
// IDs and coordinates of all but the largest designs — take two steps
// with no data-dependent branch: a zero second byte is then stepped
// like any other, which is still exact. This case and PlacementChecksum's
// one-step flags case are worth their lines: on BenchmarkPlacementChecksum
// the general loop alone (n floored at 1) takes 0.28–0.33 ms/op against
// 0.22–0.23 ms with both, and either case alone 0.26–0.27 ms —
// presumably because the loop's trip count changes from word to word
// and its exit branch mispredicts.
func fnvMixWord(h, v uint64) uint64 {
	if v < 1<<16 {
		return ((h^v&0xff)*fnvPrime64 ^ v>>8) * fnvPrimePow[7]
	}
	n := (bits.Len64(v) + 7) >> 3 // significant bytes, 3..8
	for j := 1; j < n; j++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return (h ^ v&0xff) * fnvPrimePow[9-n]
}
