package sim

import "errors"

// Typed error classes the simulator returns instead of hanging or panicking,
// so long-lived callers (serving loops, fault campaigns) can classify
// failures and keep going.
var (
	// ErrWatchdog marks a launch aborted by the kernel watchdog: the cycle
	// budget (Config.MaxCycles) was exhausted — the infinite-loop /
	// stuck-warp case. The LaunchStats returned alongside it are a partial
	// report up to the abort cycle.
	ErrWatchdog = errors.New("sim: watchdog abort")

	// ErrInvalidConfig marks a GPU configuration that cannot be
	// instantiated (malformed cache/TLB geometry, nonpositive core or warp
	// counts).
	ErrInvalidConfig = errors.New("sim: invalid config")

	// ErrCanceled marks a launch aborted because its context was canceled
	// (Ctrl-C, a deadline, a soak-loop shutdown). Like a watchdog abort, the
	// LaunchStats returned alongside it are a partial report up to the abort
	// cycle; unlike a watchdog abort the run itself was healthy, so it is
	// safe to re-run under a fresh context.
	ErrCanceled = errors.New("sim: run canceled")
)
