package core

// Fault-injection mutators: deterministic bit-level corruption entry points
// used by the internal/faults campaign engine to model soft errors in the
// GPUShield hardware structures (RBT entries, RCache tag/data arrays, the
// per-kernel Feistel key). They are ordinary state mutations — detection, if
// any, happens architecturally through the normal check paths.

// Flip returns a copy of b with the given bits inverted: baseMask applies to
// the packed base word (bit 63 = valid, bit 62 = read-only, bits 47..0 =
// base address), sizeMask to the 32-bit size.
func (b Bounds) Flip(baseMask uint64, sizeMask uint32) Bounds {
	return Bounds{base: b.base ^ baseMask, size: b.size ^ sizeMask}
}

// Corrupt flips bits in the architectural copy of id's RBT entry, keeping
// the valid-entry count coherent. It reports whether the table changed (an
// out-of-range id or zero masks leave it untouched).
func (t *RBT) Corrupt(id uint16, baseMask uint64, sizeMask uint32) bool {
	if int(id) >= NumIDs || (baseMask == 0 && sizeMask == 0) {
		return false
	}
	old := t.Lookup(id)
	nu := old.Flip(baseMask, sizeMask)
	switch {
	case old.Valid() && !nu.Valid():
		t.n--
	case !old.Valid() && nu.Valid():
		t.n++
	}
	t.put(id, nu)
	return true
}

// Corrupt flips bits in slot idx: idMask in the buffer-ID tag, baseMask and
// sizeMask in the cached bounds. Only valid (occupied) slots are corrupted —
// a soft error in an invalid entry is architecturally invisible — and the
// report says whether anything changed.
func (c *L1RCache) Corrupt(idx int, idMask uint16, baseMask uint64, sizeMask uint32) bool {
	return corruptEntry(c.entries, idx, idMask, baseMask, sizeMask)
}

// Corrupt flips bits in slot idx of the L2 RCache (same contract as the L1).
func (c *L2RCache) Corrupt(idx int, idMask uint16, baseMask uint64, sizeMask uint32) bool {
	return corruptEntry(c.entries, idx, idMask, baseMask, sizeMask)
}

func corruptEntry(entries []RCacheEntry, idx int, idMask uint16, baseMask uint64, sizeMask uint32) bool {
	if idx < 0 || idx >= len(entries) || !entries[idx].valid {
		return false
	}
	e := &entries[idx]
	e.ID = (e.ID ^ idMask) & (NumIDs - 1)
	e.Bounds = e.Bounds.Flip(baseMask, sizeMask)
	return true
}

// PerturbKey flips bits of the per-kernel Feistel key programmed into this
// BCU, modeling corruption of the key register. Subsequent Type-2 checks
// decrypt pointer payloads with the wrong key and so look up the wrong (most
// likely invalid) RBT entry. Reports whether the kernel was installed.
func (b *BCU) PerturbKey(kernelID uint16, mask uint64) bool {
	ctx := b.ctx(kernelID)
	if ctx == nil || mask == 0 {
		return false
	}
	ctx.key ^= mask
	b.gen++ // decrypt state changed: invalidate outstanding CheckMemos
	return true
}

// CorruptRCache flips bits in one RCache slot of the bank serving kernelID:
// level 1 targets the L1 RCache, level 2 the L2. It reports whether an
// occupied slot was actually corrupted.
func (b *BCU) CorruptRCache(level int, kernelID uint16, idx int, idMask uint16, baseMask uint64, sizeMask uint32) bool {
	bank := b.bank(kernelID)
	switch level {
	case 1:
		return b.l1[bank].Corrupt(idx, idMask, baseMask, sizeMask)
	case 2:
		return b.l2[bank].Corrupt(idx, idMask, baseMask, sizeMask)
	}
	return false
}
