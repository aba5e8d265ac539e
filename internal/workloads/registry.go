// Package workloads provides the benchmark corpus standing in for the
// paper's evaluation suites (Table 6): CUDA-style benchmarks (Rodinia,
// Parboil, GraphBig, CUDA-SDK) across the paper's seven domain categories
// plus the 17-benchmark OpenCL set used for the Intel GPU evaluation. Each
// benchmark builds a kernel in the repository's IR with the access pattern,
// buffer count, and memory intensity of its namesake, allocates and
// initializes real device buffers, and (where practical) verifies results
// against a host-side reference.
package workloads

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"gpushield/internal/compiler"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/randsrc"
)

// Categories used in Table 6 and Fig. 14.
const (
	CatML     = "ML" // machine learning
	CatLA     = "LA" // linear algebra
	CatGT     = "GT" // graph traversal
	CatGI     = "GI" // graph iterative
	CatPS     = "PS" // physics & modeling
	CatIM     = "IM" // image & media
	CatDM     = "DM" // data mining
	CatOpenCL = "OpenCL"
)

// Spec is a ready-to-launch workload instance: kernel, launch geometry,
// arguments, the host facts for static analysis, and an optional functional
// verifier.
type Spec struct {
	Kernel *kernel.Kernel
	Grid   int
	Block  int
	Args   []driver.Arg

	// Invocations is how many times the application launches this kernel
	// (streamcluster launches ~1000 times in the paper; it drives the
	// per-launch costs of the GMOD baseline model).
	Invocations int

	// Verify checks device results against a host reference after a
	// non-aborted run without violations. Nil when no cheap reference
	// exists.
	Verify func(dev *driver.Device) error
}

// Info derives the compiler.LaunchInfo for this spec.
func (s *Spec) Info() compiler.LaunchInfo {
	info := compiler.LaunchInfo{
		Block:       s.Block,
		Grid:        s.Grid,
		BufferBytes: make([]uint64, len(s.Args)),
		ScalarVal:   make([]int64, len(s.Args)),
		ScalarKnown: make([]bool, len(s.Args)),
	}
	for i, a := range s.Args {
		if a.Buffer != nil {
			info.BufferBytes[i] = a.Buffer.Size
		} else {
			info.ScalarVal[i] = a.Scalar
			info.ScalarKnown[i] = true
		}
	}
	return info
}

// BuildFunc constructs a workload instance on a device. scale (>= 1)
// multiplies the problem size; 1 is the test-friendly default.
type BuildFunc func(dev *driver.Device, scale int) (*Spec, error)

// Benchmark is one corpus entry.
type Benchmark struct {
	Name      string
	Suite     string // Rodinia, Parboil, GraphBig, CUDA-SDK, OpenCL-suite
	Category  string
	API       string // "cuda" or "opencl"
	Sensitive bool   // member of the RCache-sensitive set (Figs. 15, 17)
	Build     BuildFunc
}

var registry []Benchmark
var byName = map[string]*Benchmark{}

func register(b Benchmark) {
	registry = append(registry, b)
	byName[b.Name] = &registry[len(registry)-1]
}

// All returns the full corpus sorted by name.
func All() []Benchmark {
	out := append([]Benchmark(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks a benchmark up.
func ByName(name string) (Benchmark, error) {
	if b, ok := byName[name]; ok {
		return *b, nil
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Select filters the corpus.
func Select(pred func(Benchmark) bool) []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if pred(b) {
			out = append(out, b)
		}
	}
	return out
}

// CUDA returns the CUDA-side corpus (Nvidia configuration experiments).
func CUDA() []Benchmark { return Select(func(b Benchmark) bool { return b.API == "cuda" }) }

// OpenCL returns the 17-benchmark OpenCL set (Intel configuration).
func OpenCL() []Benchmark { return Select(func(b Benchmark) bool { return b.API == "opencl" }) }

// Sensitive returns the RCache-sensitive set of Figs. 15 and 17.
func Sensitive() []Benchmark {
	return Select(func(b Benchmark) bool { return b.Sensitive && b.API == "cuda" })
}

// Category returns the CUDA benchmarks of one Table 6 category.
func Category(cat string) []Benchmark {
	return Select(func(b Benchmark) bool { return b.Category == cat && b.API == "cuda" })
}

// Rodinia returns the Rodinia-suite benchmarks (Figs. 11 and 19).
func Rodinia() []Benchmark {
	return Select(func(b Benchmark) bool { return b.Suite == "Rodinia" && b.API == "cuda" })
}

// rng returns a deterministic per-benchmark random source so data sets are
// reproducible across runs.
func rng(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(randsrc.New(int64(h.Sum64())))
}

// fillU32 fills buffer b with n uint32 values in [0, mod).
func fillU32(dev *driver.Device, b *driver.Buffer, n int, r *rand.Rand, mod int64) {
	for i := 0; i < n; i++ {
		dev.WriteUint32(b, i, uint32(r.Int63n(mod)))
	}
}

// fillF32 fills buffer b with n float32 values in [0, 1).
func fillF32(dev *driver.Device, b *driver.Buffer, n int, r *rand.Rand) {
	for i := 0; i < n; i++ {
		dev.WriteFloat32(b, i, r.Float32())
	}
}

// csr is a compressed-sparse-row graph used by the graph workloads.
type csr struct {
	rowPtr []uint32 // n+1 entries
	colIdx []uint32 // m entries
	n, m   int
}

// genGraphCapped builds a random graph with n vertices, about deg edges per
// vertex, and a hard per-vertex degree cap (used by workloads whose cost is
// super-linear in degree).
func genGraphCapped(r *rand.Rand, n, deg, cap int) csr {
	adj := make([][]uint32, n)
	for v := 0; v < n; v++ {
		d := 1 + r.Intn(2*deg)
		if d > cap {
			d = cap
		}
		for e := 0; e < d; e++ {
			adj[v] = append(adj[v], uint32(r.Intn(n)))
		}
	}
	g := csr{n: n}
	g.rowPtr = make([]uint32, n+1)
	for v := 0; v < n; v++ {
		g.rowPtr[v+1] = g.rowPtr[v] + uint32(len(adj[v]))
		g.colIdx = append(g.colIdx, adj[v]...)
	}
	g.m = len(g.colIdx)
	return g
}

// genGraph builds a random graph with n vertices and roughly deg edges per
// vertex (power-law-ish tail for realism).
func genGraph(r *rand.Rand, n, deg int) csr {
	adj := make([][]uint32, n)
	for v := 0; v < n; v++ {
		d := 1 + r.Intn(2*deg)
		if r.Intn(16) == 0 {
			d *= 4 // occasional hub
		}
		for e := 0; e < d; e++ {
			adj[v] = append(adj[v], uint32(r.Intn(n)))
		}
	}
	g := csr{n: n}
	g.rowPtr = make([]uint32, n+1)
	for v := 0; v < n; v++ {
		g.rowPtr[v+1] = g.rowPtr[v] + uint32(len(adj[v]))
		g.colIdx = append(g.colIdx, adj[v]...)
	}
	g.m = len(g.colIdx)
	return g
}

// uploadCSR copies a CSR graph into device buffers.
func uploadCSR(dev *driver.Device, name string, g csr) (rowPtr, colIdx *driver.Buffer) {
	rowPtr = dev.Malloc(name+"-rowptr", uint64((g.n+1)*4), true)
	colIdx = dev.Malloc(name+"-colidx", uint64(maxInt(g.m, 1)*4), true)
	for i, v := range g.rowPtr {
		dev.WriteUint32(rowPtr, i, v)
	}
	for i, v := range g.colIdx {
		dev.WriteUint32(colIdx, i, v)
	}
	return rowPtr, colIdx
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
