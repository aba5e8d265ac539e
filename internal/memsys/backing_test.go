package memsys

import "testing"

// TestBackingStraddleWidths exercises the chunk-straddling slow path of
// ReadUint/WriteUint for every width at every offset around a chunk
// boundary, checking against a byte-at-a-time reference.
func TestBackingStraddleWidths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for delta := -8; delta <= 1; delta++ {
			m := NewBacking()
			addr := uint64(chunkBytes + delta)
			v := uint64(0x1122334455667788)
			m.WriteUint(addr, v, n)

			mask := ^uint64(0)
			if n < 8 {
				mask = (1 << (8 * uint(n))) - 1
			}
			want := v & mask
			if got := m.ReadUint(addr, n); got != want {
				t.Fatalf("n=%d delta=%d: ReadUint=%#x want %#x", n, delta, got, want)
			}
			// Byte-at-a-time readback must agree (little endian).
			var ref uint64
			for i := n - 1; i >= 0; i-- {
				ref = ref<<8 | m.ReadUint(addr+uint64(i), 1)
			}
			if ref != want {
				t.Fatalf("n=%d delta=%d: byte readback=%#x want %#x", n, delta, ref, want)
			}
			// Neighbouring bytes stay untouched.
			if b := m.ReadUint(addr-1, 1); b != 0 {
				t.Fatalf("n=%d delta=%d: byte before write clobbered: %#x", n, delta, b)
			}
			if b := m.ReadUint(addr+uint64(n), 1); b != 0 {
				t.Fatalf("n=%d delta=%d: byte after write clobbered: %#x", n, delta, b)
			}
		}
	}
}

// TestBackingChunkCacheCoherence interleaves accesses across chunks so the
// one-entry chunk cache is repeatedly evicted and refilled, and verifies the
// data stays coherent with the map.
func TestBackingChunkCacheCoherence(t *testing.T) {
	m := NewBacking()
	const far = uint64(5 * chunkBytes)
	m.WriteUint(0, 0xAAAA, 8)   // chunk 0 cached
	m.WriteUint(far, 0xBBBB, 8) // evicts, caches chunk 5
	m.WriteUint(8, 0xCCCC, 8)   // back to chunk 0
	if got := m.ReadUint(far, 8); got != 0xBBBB {
		t.Fatalf("far chunk: %#x", got)
	}
	if got := m.ReadUint(0, 8); got != 0xAAAA {
		t.Fatalf("chunk 0 word 0: %#x", got)
	}
	if got := m.ReadUint(8, 8); got != 0xCCCC {
		t.Fatalf("chunk 0 word 1: %#x", got)
	}
}

// TestBackingScalarPathDoesNotAllocate locks the PR 3 zero-allocation
// property of the scalar fast paths, including the chunk-straddling case
// (which must use a stack buffer, not ReadBytes).
func TestBackingScalarPathDoesNotAllocate(t *testing.T) {
	m := NewBacking()
	aligned := uint64(128)
	straddle := uint64(chunkBytes - 3)
	// Touch both chunks first so materialization is not counted.
	m.WriteUint64(aligned, 1)
	m.WriteUint64(straddle, 2)
	if avg := testing.AllocsPerRun(100, func() {
		m.WriteUint(aligned, 0xF00D, 8)
		_ = m.ReadUint(aligned, 8)
		m.WriteUint(straddle, 0xBEEF, 8)
		_ = m.ReadUint(straddle, 8)
		_ = m.ReadUint(aligned, 3) // odd-width in-chunk path
	}); avg != 0 {
		t.Fatalf("scalar path allocates: %v allocs/run", avg)
	}
}

// TestBackingResetRecyclesZeroedChunks fills more chunks than the free list
// keeps, chunk-straddling writes included, resets, and touches as many new
// addresses as there are free chunks: each must get one of the old chunks
// back (no allocation) and read zero in every byte through ReadUint,
// ReadBytes and Span. The chunks past the cap are dropped.
func TestBackingResetRecyclesZeroedChunks(t *testing.T) {
	m := NewBacking()
	const filled = freeChunksMax + 36
	pattern := make([]byte, chunkBytes)
	for i := range pattern {
		pattern[i] = byte(i*7 + 1)
	}
	old := map[*byte]bool{}
	for i := 0; i < filled; i++ {
		base := uint64(i) * 3 * chunkBytes // every third chunk
		m.WriteBytes(base, pattern)
		m.WriteUint(base+chunkBytes-4, ^uint64(0), 8) // straddles into the next chunk
		m.WriteUint64(base+chunkBytes+8, 0x0123456789ABCDEF)
	}
	for _, c := range m.chunks {
		old[&c[0]] = true
	}
	if len(old) != 2*filled {
		t.Fatalf("filled %d chunks, want %d", len(old), 2*filled)
	}

	m.Reset()
	if len(m.free) != freeChunksMax {
		t.Fatalf("free list holds %d chunks after reset, want %d", len(m.free), freeChunksMax)
	}
	if len(m.chunks) != 0 || m.FootprintBytes() != 0 {
		t.Fatalf("reset left %d chunks mapped", len(m.chunks))
	}

	// Touch freeChunksMax new chunks (other addresses than before), each
	// first through a different read path, then check every byte.
	for i := 0; i < freeChunksMax; i++ {
		base := uint64(i)*5*chunkBytes + 7*chunkBytes
		switch i % 3 {
		case 0:
			_ = m.ReadUint(base, 8)
		case 1:
			_ = m.ReadBytes(base, 1)
		case 2:
			_ = m.Span(base, 16)
		}
		c := m.chunks[base/chunkBytes]
		if !old[&c[0]] {
			t.Fatalf("chunk %d: allocated anew although the free list held %d chunks", i, len(m.free)+1)
		}
		for off := uint64(0); off < chunkBytes; off += 8 {
			if v := m.ReadUint(base+off, 8); v != 0 {
				t.Fatalf("chunk %d offset %d: ReadUint = %#x after reuse", i, off, v)
			}
		}
		for _, b := range m.ReadBytes(base, chunkBytes) {
			if b != 0 {
				t.Fatalf("chunk %d: ReadBytes sees a non-zero byte after reuse", i)
			}
		}
		for _, b := range m.Span(base, chunkBytes) {
			if b != 0 {
				t.Fatalf("chunk %d: Span sees a non-zero byte after reuse", i)
			}
		}
	}
	if len(m.free) != 0 {
		t.Fatalf("free list holds %d chunks after %d touches, want 0", len(m.free), freeChunksMax)
	}
	// The next new chunk is a fresh allocation.
	m.WriteUint64(1<<40, 1)
	if c := m.chunks[(1<<40)/chunkBytes]; old[&c[0]] {
		t.Fatalf("chunk past the free list reused an old chunk")
	}
}
