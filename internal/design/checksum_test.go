package design

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// placementChecksumRef is the original byte-serial PlacementChecksum:
// eight FNV-1a steps per word, zero bytes included. The fuzz target pins
// the zero-byte-skipping implementation to it.
func placementChecksumRef(d *Design) uint64 {
	h := fnvOffset64
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		mix(uint64(c.ID))
		mix(uint64(int64(c.X)))
		mix(uint64(int64(c.Y)))
		flags := uint64(c.Orient) << 1
		if c.Placed {
			flags |= 1
		}
		mix(flags)
	}
	return h
}

// checksumDesign decodes fuzz bytes into a cell roster. Each cell takes
// up to 26 bytes: a kind byte (bits 0–2: placed, dead and fixed flags;
// bits 4–7: ID width class), a raw Orient byte (N, FS or an undefined
// value), then the ID, X and Y. The ID width class picks IDs below 2^8,
// 2^16, 2^24, 2^32 or full 64-bit values; X and Y are raw little-endian int64s, so negative and huge
// coordinates both occur. IDs are taken from the bytes, not the slot,
// because the checksum only reads the fields.
func checksumDesign(data []byte) *Design {
	d := &Design{}
	for len(data) > 0 {
		kind := data[0]
		data = data[1:]
		var orient Orient
		if len(data) > 0 {
			orient, data = Orient(data[0]), data[1:]
		}
		take := func(n int) uint64 {
			var b [8]byte
			k := copy(b[:n], data)
			data = data[k:]
			return binary.LittleEndian.Uint64(b[:])
		}
		var id uint64
		switch (kind >> 4) % 5 {
		case 0:
			id = take(1)
		case 1:
			id = take(2)
		case 2:
			id = take(3)
		case 3:
			id = take(4)
		default:
			id = take(8)
		}
		c := Cell{
			ID:     CellID(id),
			X:      int(int64(take(8))),
			Y:      int(int64(take(8))),
			Placed: kind&1 != 0,
			Orient: orient,
			Dead:   kind&2 != 0,
			Fixed:  kind&4 != 0,
		}
		d.Cells = append(d.Cells, c)
	}
	return d
}

// checksumSeed encodes one cell in the checksumDesign format with a
// 4-byte ID.
func checksumSeed(kind byte, o Orient, id uint32, x, y int64) []byte {
	b := []byte{kind&0x0f | 3<<4, byte(o)}
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint64(b, uint64(x))
	return binary.LittleEndian.AppendUint64(b, uint64(y))
}

// FuzzPlacementChecksumMatchesReference pins PlacementChecksum to the
// byte-serial reference on arbitrary rosters: empty and one-cell
// designs, negative and 64-bit coordinates, IDs past 2^16 and 2^24,
// unplaced, dead and fixed cells, both orients and undefined Orient
// values that push the flags word past one byte.
func FuzzPlacementChecksumMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add(checksumSeed(1, N, 0, 0, 0))
	f.Add(checksumSeed(0, N, 7, 0, 0))
	f.Add(append(checksumSeed(1, FS, 1<<16, -3, 12), checksumSeed(1|4, N, 1<<24+5, 400, -1)...))
	f.Add(append(checksumSeed(2, N, 70000, 1<<40, -(1<<40)), checksumSeed(1, FS, 0xffffffff, -1, 255)...))
	f.Add(append(checksumSeed(1, 200, 65535, 65536, 256), checksumSeed(3, 128, 255, 1<<16-1, 1<<24)...))
	f.Add([]byte{0x41, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := checksumDesign(data)
		if got, want := d.PlacementChecksum(), placementChecksumRef(d); got != want {
			t.Fatalf("checksum %016x, reference %016x over %d cells: %+v", got, want, len(d.Cells), d.Cells)
		}
	})
}

// TestPlacementChecksumMatchesReferenceRandom compares the two
// implementations on random rosters shaped like real designs: slot IDs,
// small non-negative coordinates, a share of unplaced, dead and fixed
// cells, both orients, and a few negative coordinates.
func TestPlacementChecksumMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		d := &Design{}
		n := rng.Intn(3000)
		if trial == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			c := Cell{ID: CellID(i), X: rng.Intn(1 << uint(1+rng.Intn(20))), Y: rng.Intn(2000)}
			c.Placed = rng.Intn(10) != 0
			c.Dead = rng.Intn(20) == 0
			c.Fixed = rng.Intn(30) == 0
			if rng.Intn(2) == 0 {
				c.Orient = FS
			}
			if rng.Intn(50) == 0 {
				c.X = -c.X - 1
			}
			d.Cells = append(d.Cells, c)
		}
		if got, want := d.PlacementChecksum(), placementChecksumRef(d); got != want {
			t.Fatalf("trial %d (%d cells): checksum %016x, reference %016x", trial, n, got, want)
		}
	}
}

// benchChecksumDesign is a 20k-cell placed roster with the coordinate
// ranges of the serve-mixed session design.
func benchChecksumDesign() *Design {
	rng := rand.New(rand.NewSource(3))
	d := &Design{}
	for i := 0; i < 20000; i++ {
		c := Cell{ID: CellID(i), X: rng.Intn(1500), Y: rng.Intn(150), Placed: true}
		if rng.Intn(2) == 0 {
			c.Orient = FS
		}
		d.Cells = append(d.Cells, c)
	}
	return d
}

// checksumSink keeps the benchmarked digests live.
var checksumSink uint64

// BenchmarkPlacementChecksum times one digest of a 20k-cell design, the
// per-frame cost of an ECO session reply. It must not allocate.
func BenchmarkPlacementChecksum(b *testing.B) {
	d := benchChecksumDesign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink ^= d.PlacementChecksum()
	}
}

// BenchmarkPlacementChecksumRef times the byte-serial reference on the
// same design, for comparison.
func BenchmarkPlacementChecksumRef(b *testing.B) {
	d := benchChecksumDesign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink ^= placementChecksumRef(d)
	}
}
