package memsys

// DRAMConfig describes the off-chip memory model: a multi-channel,
// multi-bank DRAM with per-bank open rows scheduled FR-FCFS-style (row hits
// are cheap, row conflicts pay precharge + activate). Matches the memory
// configuration of Table 5: 2 KB row buffer, 16 channels, FR-FCFS policy.
type DRAMConfig struct {
	Channels        int
	BanksPerChannel int
	RowBytes        int // row-buffer size
	InterleaveBytes int // consecutive chunks of this size rotate across channels

	RowHitCycles  int // CAS only
	RowMissCycles int // precharge + activate + CAS
	BurstCycles   int // data transfer occupancy per request
}

// DefaultDRAMConfig returns the Table 5 memory configuration with typical
// GDDR-class timing in core cycles.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Channels:        16,
		BanksPerChannel: 8,
		RowBytes:        2048,
		InterleaveBytes: 256,
		RowHitCycles:    60,
		RowMissCycles:   160,
		BurstCycles:     4,
	}
}

// DRAMStats counts request outcomes.
type DRAMStats struct {
	Requests  uint64
	RowHits   uint64
	RowMisses uint64
}

type dramBank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// DRAM is the device-memory timing model.
type DRAM struct {
	cfg   DRAMConfig
	banks [][]dramBank // [channel][bank]
	Stats DRAMStats
}

// NewDRAM builds the DRAM model from cfg.
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{cfg: cfg}
	d.banks = make([][]dramBank, cfg.Channels)
	for i := range d.banks {
		d.banks[i] = make([]dramBank, cfg.BanksPerChannel)
	}
	d.Reset()
	return d
}

// Reset closes every row, idles every bank and clears the statistics,
// keeping the bank arrays.
func (d *DRAM) Reset() {
	for _, ch := range d.banks {
		clear(ch)
	}
	d.Stats = DRAMStats{}
}

// Config returns the DRAM geometry.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// Probe previews the completion time Access(now, addr) would return,
// without mutating any bank state: no row-buffer update, no occupancy
// reservation, no statistics. It is the read-only half of the probe/apply
// split the simulator's two-phase scheduler relies on — a parallel planning
// phase may Probe shared structures freely, while the mutating Access is
// reserved for the serial commit phase. Probe's preview is exact only for
// the next request to the same bank.
func (d *DRAM) Probe(now uint64, addr uint64) (doneAt uint64) {
	chunk := addr / uint64(d.cfg.InterleaveBytes)
	ch := chunk % uint64(d.cfg.Channels)
	row := addr / uint64(d.cfg.RowBytes)
	bank := d.banks[ch][row%uint64(d.cfg.BanksPerChannel)] // copy: no mutation

	start := now
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	lat := uint64(d.cfg.RowMissCycles)
	if bank.rowValid && bank.openRow == row {
		lat = uint64(d.cfg.RowHitCycles)
	}
	return start + lat + uint64(d.cfg.BurstCycles)
}

// Access issues one memory request for addr at time now and returns the
// cycle at which the data is available. Bank conflicts serialize behind the
// bank's previous request; row-buffer hits take RowHitCycles, conflicts take
// RowMissCycles. Access is the apply half of the probe/apply split: it
// mutates bank state and statistics, so under the two-phase scheduler it
// must only run in the serial commit phase.
func (d *DRAM) Access(now uint64, addr uint64) (doneAt uint64) {
	d.Stats.Requests++
	chunk := addr / uint64(d.cfg.InterleaveBytes)
	ch := chunk % uint64(d.cfg.Channels)
	row := addr / uint64(d.cfg.RowBytes)
	bank := &d.banks[ch][row%uint64(d.cfg.BanksPerChannel)]

	start := now
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	lat := uint64(d.cfg.RowMissCycles)
	if bank.rowValid && bank.openRow == row {
		lat = uint64(d.cfg.RowHitCycles)
		d.Stats.RowHits++
	} else {
		d.Stats.RowMisses++
		bank.openRow = row
		bank.rowValid = true
	}
	doneAt = start + lat + uint64(d.cfg.BurstCycles)
	bank.busyUntil = start + lat/2 + uint64(d.cfg.BurstCycles) // pipelined bank occupancy
	return doneAt
}
