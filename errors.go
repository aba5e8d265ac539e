package gpushield

import (
	"gpushield/internal/driver"
	"gpushield/internal/pool"
	"gpushield/internal/sim"
)

// Typed error classes, re-exported so callers can classify failures with
// errors.Is without importing internal packages.
var (
	// ErrWatchdog marks a launch aborted by the kernel watchdog after the
	// WithMaxCycles budget was exhausted.
	// The Report returned alongside it is partial, valid up to the abort.
	ErrWatchdog = sim.ErrWatchdog

	// ErrInvalidLaunch marks a launch request rejected before execution:
	// nil kernel, argument/parameter mismatch, or bad grid/block geometry.
	ErrInvalidLaunch = driver.ErrInvalidLaunch

	// ErrAllocExhausted marks device-memory, heap, or buffer-ID exhaustion.
	ErrAllocExhausted = driver.ErrAllocExhausted

	// ErrInvalidConfig marks a GPU configuration that cannot be built.
	ErrInvalidConfig = sim.ErrInvalidConfig

	// ErrCanceled marks a launch aborted because its context was canceled
	// (Ctrl-C, a deadline). The Report returned alongside it is partial,
	// valid up to the abort; the run is safe to retry under a fresh context.
	ErrCanceled = sim.ErrCanceled

	// ErrRunPanic marks a run that panicked inside a worker pool and was
	// contained: the panic was converted into an error carrying the run
	// identity and stack instead of killing the process.
	ErrRunPanic = pool.ErrRunPanic
)
