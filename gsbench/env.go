package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// overrideVars switch the simulator off its default paths. A timed run
// under any of them would measure a different program.
var overrideVars = []string{
	"GPUSHIELD_NO_SUPERBLOCKS",
	"GPUSHIELD_NO_MEMPLANS",
	"GPUSHIELD_CORE_PARALLEL",
}

// checkOverrides refuses a timed run when a simulator override is set.
func checkOverrides(getenv func(string) string) error {
	for _, v := range overrideVars {
		if getenv(v) != "" {
			return fmt.Errorf("%s is set; timed runs measure the default simulator paths only", v)
		}
	}
	return nil
}

// runEnv is the host a run was measured on.
type runEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// StealTicks is the hypervisor steal time, in USER_HZ ticks summed over
	// all CPUs, that /proc/stat recorded while the run was measuring.
	StealTicks int64 `json:"steal_ticks"`
}

func currentEnv() runEnv {
	return runEnv{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the aggregate steal counter (the eighth value of the
// "cpu" line) from /proc/stat; -1 when the host does not expose it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// rssWindow is the window rssWindows takes each peak resident set over.
const rssWindow = time.Second

// rssWindows runs f and returns the peak resident set of each whole
// rssWindow f ran for, or the peak of f's run when it ran for less than a
// window. A sweep pass's peak over the whole pass swung by ±25% with where
// garbage collection fell relative to the largest benchmarks running at
// once; the median of many windows' peaks does not.
func rssWindows(f func()) []float64 {
	done := make(chan struct{})
	var peaks []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				peaks = append(peaks, peakRSSMB())
				clearPeakRSS()
			}
		}
	}()
	f()
	close(done)
	wg.Wait()
	if len(peaks) == 0 {
		peaks = append(peaks, peakRSSMB())
	}
	return peaks
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS accounting, so the next peakRSSMB reads the peak of what follows
// from a clean heap, as a fresh process would see it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	clearPeakRSS()
}

// clearPeakRSS restarts the kernel's peak-RSS accounting at the current
// resident set. Without it the next reading covers the whole process so
// far, which only overstates the peak.
func clearPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
