package memsys

import "encoding/binary"

// chunkBytes is the allocation granule of the backing store: one 4 KB
// page. Sparse writes are the case that sets it: a launch writes a few
// 16-byte RBT entries at random IDs of a fresh 256 KB table, and each
// touched granule is materialized and zeroed in full. The value is an
// implementation detail independent of the architectural page size.
const chunkBytes = 1 << 12

// freeChunksMax caps the chunks Reset keeps for reuse (64 × 4 KB = 256 KB).
// A fuzz leg touches 2–9 chunks, so its resets never allocate one; a device
// that grew past the cap — the daemon recycles one past its allocation
// high-water mark — keeps only the cap and the rest is collected.
const freeChunksMax = 64

// Backing is the byte-addressable storage behind simulated device memory.
// It is sparse: chunks materialize on first touch, so a 48-bit address space
// costs only what is actually used. All addresses are physical (the
// simulator uses identity virtual→physical mapping after tag stripping).
type Backing struct {
	chunks map[uint64][]byte

	// free holds chunks a Reset released, at most freeChunksMax of them;
	// chunk zeroes one before handing it out.
	free [][]byte

	// One-entry chunk cache: functional memory traffic is heavily clustered
	// (a warp's lanes touch neighbouring addresses), so the last chunk
	// serves almost every access without a map lookup.
	lastBase  uint64
	lastChunk []byte
}

// NewBacking returns an empty backing store.
func NewBacking() *Backing {
	m := &Backing{chunks: make(map[uint64][]byte)}
	m.Reset()
	return m
}

// Reset empties the store and the one-entry chunk cache. Up to
// freeChunksMax chunks move to the free list for reuse; the others are
// dropped so their memory can be collected. The map keeps its buckets.
func (m *Backing) Reset() {
	for _, c := range m.chunks {
		if len(m.free) == freeChunksMax {
			break
		}
		m.free = append(m.free, c)
	}
	clear(m.chunks)
	m.lastBase = 0
	m.lastChunk = nil
}

// chunk returns the backing chunk containing addr, materializing it on
// first touch and refreshing the one-entry chunk cache.
func (m *Backing) chunk(addr uint64) []byte {
	base := addr / chunkBytes
	if m.lastChunk != nil && base == m.lastBase {
		return m.lastChunk
	}
	c, ok := m.chunks[base]
	if !ok {
		if n := len(m.free); n > 0 {
			c = m.free[n-1]
			m.free = m.free[:n-1]
			clear(c)
		} else {
			c = make([]byte, chunkBytes)
		}
		m.chunks[base] = c
	}
	m.lastBase, m.lastChunk = base, c
	return c
}

// Span returns the live backing bytes for [addr, addr+n) when the range
// lies inside one chunk, materializing the chunk on first touch; a
// chunk-straddling (or out-of-range n) request returns nil and the caller
// falls back to the element-at-a-time path. The slice aliases the store —
// reads see current memory and writes through it are real stores — which is
// what lets the LSU batch a dense unit-stride transaction into one copy
// without allocating.
func (m *Backing) Span(addr uint64, n int) []byte {
	off := int(addr % chunkBytes)
	if n < 0 || off+n > chunkBytes {
		return nil
	}
	c := m.chunk(addr)
	return c[off : off+n]
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (m *Backing) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(addr, out)
	return out
}

// ReadInto fills out from addr without allocating.
func (m *Backing) ReadInto(addr uint64, out []byte) {
	for i := 0; i < len(out); {
		c := m.chunk(addr + uint64(i))
		off := int((addr + uint64(i)) % chunkBytes)
		i += copy(out[i:], c[off:])
	}
}

// WriteBytes stores p starting at addr.
func (m *Backing) WriteBytes(addr uint64, p []byte) {
	for i := 0; i < len(p); {
		c := m.chunk(addr + uint64(i))
		off := int((addr + uint64(i)) % chunkBytes)
		k := copy(c[off:], p[i:])
		i += k
	}
}

// ReadUint reads an n-byte little-endian unsigned value (n in 1..8). The
// common case — the value lies inside one chunk — indexes the chunk
// directly; only a chunk-straddling access takes the byte-copy path.
func (m *Backing) ReadUint(addr uint64, n int) uint64 {
	off := int(addr % chunkBytes)
	if off+n <= chunkBytes {
		c := m.chunk(addr)
		switch n {
		case 8:
			return binary.LittleEndian.Uint64(c[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(c[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(c[off:]))
		case 1:
			return uint64(c[off])
		}
		return readOddWidth(c, off, n)
	}
	var buf [8]byte
	m.ReadInto(addr, buf[:n])
	return binary.LittleEndian.Uint64(buf[:])
}

// readOddWidth handles the non-power-of-two widths the IR validator never
// emits (kept for API completeness, off the hot path).
//
//go:noinline
func readOddWidth(c []byte, off, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(c[off+i])
	}
	return v
}

// WriteUint writes the low n bytes of v little-endian at addr (n in 1..8),
// with the same single-chunk fast path as ReadUint.
func (m *Backing) WriteUint(addr uint64, v uint64, n int) {
	off := int(addr % chunkBytes)
	if off+n <= chunkBytes {
		c := m.chunk(addr)
		switch n {
		case 8:
			binary.LittleEndian.PutUint64(c[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(c[off:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(c[off:], uint16(v))
		case 1:
			c[off] = byte(v)
		default:
			writeOddWidth(c, off, n, v)
		}
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.WriteBytes(addr, buf[:n])
}

// writeOddWidth is readOddWidth's store-side twin.
//
//go:noinline
func writeOddWidth(c []byte, off, n int, v uint64) {
	for i := 0; i < n; i++ {
		c[off+i] = byte(v >> (8 * uint(i)))
	}
}

// ReadUint64 reads a 64-bit little-endian value.
func (m *Backing) ReadUint64(addr uint64) uint64 { return m.ReadUint(addr, 8) }

// WriteUint64 writes a 64-bit little-endian value.
func (m *Backing) WriteUint64(addr uint64, v uint64) { m.WriteUint(addr, v, 8) }

// ReadUint32 reads a 32-bit little-endian value.
func (m *Backing) ReadUint32(addr uint64) uint32 { return uint32(m.ReadUint(addr, 4)) }

// WriteUint32 writes a 32-bit little-endian value.
func (m *Backing) WriteUint32(addr uint64, v uint32) { m.WriteUint(addr, uint64(v), 4) }

// FootprintBytes returns the number of materialized bytes (a measure of
// simulated-memory usage, not architectural allocation).
func (m *Backing) FootprintBytes() int { return len(m.chunks) * chunkBytes }
