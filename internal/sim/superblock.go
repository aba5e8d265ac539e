package sim

import (
	"math/bits"

	"gpushield/internal/kernel"
)

// Superblock stepping: each kernel's instruction stream is pre-decoded
// once, at its first launch on a GPU, into superblocks — maximal
// straight-line runs of unpredicated ALU instructions containing no memory,
// branch, barrier, or exit instruction — and the functional effects of a
// whole superblock are applied in one dispatch when a warp issues its first
// instruction.
//
// Equivalence with per-instruction stepping is held by construction, not by
// side conditions: only the *functional* execution is hoisted. The scheduler
// still issues every instruction of the block at its exact serial cycle —
// the remaining instructions become "replay" issues that advance PC, charge
// the per-opcode latency, and bump WarpInstrs/ThreadInstrs, but skip the
// arithmetic (already applied). Issue slots, contention between warps, wake
// times, watchdog and cancellation polls, the visited-cycle sequence, and
// partial stats at any abort point are therefore byte-identical to
// single-stepping at every -core-parallel width.
//
// Hoisting the arithmetic is safe because ALU instructions are lane-local
// (each lane reads and writes only its own registers) and warp-private: no
// other warp, core, hook, or stat can observe a warp's registers mid-block.
// Runs are cut at every potential divergence-reconvergence target so the
// reconvergence stack can never pop (changing the active mask) inside a
// block, and predicated instructions are excluded so the guard mask of every
// block instruction is exactly the (constant) active mask.
//
// Nothing about a block is specific to a warp: the tid base, workgroup id
// and launch parameters resolve to affine operands as each instruction
// executes (shape.go), so the block table is the whole lowering.

// superblockLens returns, for each pc, the length of the maximal superblock
// run starting there (0 for instructions that cannot begin one). A branch
// into the middle of a pre-decoded run is harmless: the table holds suffix
// lengths, so the landing pc simply starts a shorter run.
func superblockLens(k *kernel.Kernel) []int32 {
	code := k.Code
	// Reconvergence targets: the only pcs where warp.reconverge can pop a
	// stack entry (every pushed reconvPC is some BraDiv's Reconv field).
	// A run must not flow across one, or a mid-block pop would change the
	// active mask the bulk execution already used.
	reconv := make([]bool, len(code)+1)
	for i := range code {
		if code[i].Op == kernel.OpBraDiv {
			if r := code[i].Reconv; r >= 0 && r < len(reconv) {
				reconv[r] = true
			}
		}
	}
	lens := make([]int32, len(code))
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		if in.Op.IsMemory() || in.Op.IsBranch() ||
			in.Op == kernel.OpBar || in.Op == kernel.OpExit || in.Pred >= 0 {
			continue // lens[pc] stays 0: ends any run
		}
		lens[pc] = 1
		if pc+1 < len(code) && !reconv[pc+1] {
			lens[pc] += lens[pc+1]
		}
	}
	return lens
}

// kernelTable is a kernel's pre-decoded form, built once per kernel and
// cached in GPU.sbCache: the superblock suffix lengths (nil on the
// reference path) and, per pc, the check-memo slot of each global-memory
// site (coreState.memos).
type kernelTable struct {
	lens   []int32
	sites  []int32
	nSites int
}

// lower returns the (cached) kernel table for k.
func (g *GPU) lower(k *kernel.Kernel) *kernelTable {
	if t, ok := g.sbCache[k]; ok {
		return t
	}
	// The cache is keyed by kernel identity; a long-lived GPU fed unbounded
	// distinct kernels (the fuzzer, the service catalog) must not grow
	// without bound.
	if len(g.sbCache) >= 256 {
		clear(g.sbCache)
	}
	t := &kernelTable{sites: make([]int32, len(k.Code))}
	if !g.noSuperblocks {
		t.lens = superblockLens(k)
	}
	for pc := range k.Code {
		if in := &k.Code[pc]; in.Op.IsMemory() && in.Space == kernel.SpaceGlobal {
			t.sites[pc] = int32(t.nSites)
			t.nSites++
		}
	}
	g.sbCache[k] = t
	return t
}

// execSuperblock applies the functional effects of the n-instruction
// superblock starting at w.pc through the shaped executor, one dispatch
// per instruction; the guard mask of every block instruction is the
// active mask. The caller completes the first instruction's issue; the
// remaining n-1 become replay issues (w.sbLeft).
func (c *coreState) execSuperblock(w *warp, n int) {
	block := w.code[w.pc : w.pc+n]
	for i := range block {
		c.execALU(w, &block[i], w.active)
	}
	w.sbLeft = n - 1
}

// replayIssue is the scheduler-visible remainder of a pre-executed
// superblock instruction: per-instruction stats, PC advance, and the opcode
// latency — everything except the (already applied) arithmetic. It must
// mirror execute's ALU path exactly.
func (c *coreState) replayIssue(w *warp, in *kernel.Instr, now uint64) {
	st := c.statsFor(w.wg.run)
	st.WarpInstrs++
	st.ThreadInstrs += uint64(bits.OnesCount64(w.active))
	w.sbLeft--
	w.pc++
	c.wake(w, now+uint64(c.gpu.aluLat[in.Op]))
}
