package kernel_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"gpushield/internal/kernel"
	"gpushield/internal/kernelfuzz"
)

// assertEncodesLikeReference checks that EncodeJSON emits exactly the bytes
// of json.MarshalIndent, or fails exactly when it does, with the same error.
func assertEncodesLikeReference(t *testing.T, label string, k *kernel.Kernel) {
	t.Helper()
	want, wantErr := json.MarshalIndent(k, "", "  ")
	got, gotErr := k.EncodeJSON()
	if (wantErr != nil) != (gotErr != nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error mismatch: EncodeJSON %v, MarshalIndent %v", label, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeJSON differs from MarshalIndent\n got: %s\nwant: %s", label, got, want)
	}
}

// TestEncodeJSONMatchesMarshalIndentOnGenerated runs every kernel of the
// fuzzer's generated cases, malformed ones included, at three seeds.
func TestEncodeJSONMatchesMarshalIndentOnGenerated(t *testing.T) {
	n := 0
	for _, seed := range []int64{1, 7, 12345} {
		for i := 0; i < 400; i++ {
			c := kernelfuzz.Generate(seed, i)
			if c.Malformed != nil {
				assertEncodesLikeReference(t, c.Malformed.Name, c.Malformed.Kernel)
				n++
				continue
			}
			kernels, err := kernelfuzz.BuildKernels(c)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, i, err)
			}
			for _, k := range kernels {
				assertEncodesLikeReference(t, k.Name, k)
				n++
			}
		}
	}
	if n < 1000 {
		t.Fatalf("only %d kernels compared", n)
	}
}

// TestEncodeJSONMatchesMarshalIndentOnCorpus runs every committed bug-corpus
// kernel, including the ones that fail validation.
func TestEncodeJSONMatchesMarshalIndentOnCorpus(t *testing.T) {
	entries, err := kernelfuzz.LoadDir("../../testdata/bugcorpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty bug corpus")
	}
	for _, e := range entries {
		for li, l := range e.Launches {
			var k kernel.Kernel
			if err := json.Unmarshal(l.Kernel, &k); err != nil {
				t.Fatalf("%s launch %d: %v", e.Name, li, err)
			}
			assertEncodesLikeReference(t, e.Name, &k)
		}
	}
}

// edgeKernels returns, by name, the kernels generated cases do not cover:
// nil versus empty slices, every opcode, space and special, extreme
// immediates and register numbers, names that need escaping, and values the
// codec must reject.
func edgeKernels() map[string]*kernel.Kernel {
	base := func() *kernel.Kernel {
		return &kernel.Kernel{
			Name:    "edge",
			Params:  []kernel.ParamSpec{{Name: "p", Kind: kernel.ParamBuffer}, {Name: "s", Kind: kernel.ParamScalar, ReadOnly: true}},
			Locals:  []kernel.LocalVar{{Name: "l", Bytes: 16}},
			NumRegs: 4,
			Code:    []kernel.Instr{{Op: kernel.OpExit, Dst: -1, Pred: -1}},
		}
	}
	cases := map[string]*kernel.Kernel{}
	add := func(name string, edit func(k *kernel.Kernel)) {
		k := base()
		edit(k)
		cases[name] = k
	}

	add("nil-slices", func(k *kernel.Kernel) { k.Params, k.Locals, k.Code = nil, nil, nil })
	add("empty-slices", func(k *kernel.Kernel) {
		k.Params, k.Locals, k.Code = []kernel.ParamSpec{}, []kernel.LocalVar{}, []kernel.Instr{}
	})
	add("negative-sizes", func(k *kernel.Kernel) { k.SharedBytes, k.NumRegs = -1, math.MinInt })
	for op := kernel.OpNop; op <= kernel.OpExit; op++ {
		for sp := kernel.SpaceGlobal; sp <= kernel.SpaceShared; sp++ {
			add(op.String()+"/"+sp.String(), func(k *kernel.Kernel) {
				k.Code = []kernel.Instr{
					{Op: op, Dst: 1, Src: [3]kernel.Operand{kernel.Reg(0), kernel.Imm(-3), kernel.Param(1)},
						Pred: 2, PNeg: true, Space: sp, Bytes: 8, F32: true, Label: 7, Reconv: 9},
					{Op: op, Dst: -1, Pred: -1, Space: sp},
					{Op: op, Dst: 0, Pred: 0, Src: [3]kernel.Operand{{}, kernel.Reg(3)}, Space: sp, Bytes: 4, Label: 0, Reconv: 0},
				}
			})
		}
	}
	for s := kernel.SpecTIDX; int(s) < kernel.NumSpecials; s++ {
		add("special-"+s.String(), func(k *kernel.Kernel) {
			k.Code[0].Src = [3]kernel.Operand{kernel.Spec(s), {}, kernel.Spec(s)}
		})
	}
	add("extreme-immediates", func(k *kernel.Kernel) {
		k.Code = []kernel.Instr{
			{Op: kernel.OpMov, Dst: 0, Pred: -1, Src: [3]kernel.Operand{kernel.Imm(math.MinInt64)}},
			{Op: kernel.OpMov, Dst: 0, Pred: -1, Src: [3]kernel.Operand{kernel.Imm(math.MaxInt64)}},
			{Op: kernel.OpMov, Dst: 0, Pred: -1, Src: [3]kernel.Operand{kernel.Imm(0)}},
			{Op: kernel.OpMov, Dst: 0, Pred: -1, Src: [3]kernel.Operand{kernel.FImm(math.NaN())}},
			{Op: kernel.OpMov, Dst: 0, Pred: -1, Src: [3]kernel.Operand{kernel.FImm(math.Copysign(0, -1))}},
			{Op: kernel.OpMov, Dst: math.MaxInt, Pred: math.MinInt, Src: [3]kernel.Operand{kernel.Reg(math.MinInt), kernel.Param(math.MaxInt)}},
			{Op: kernel.OpBraDiv, Dst: -2, Pred: -1, Label: math.MinInt, Reconv: math.MaxInt},
		}
	})
	for i, name := range []string{
		`quote"d`, `back\slash`, "<script>&amp;</script>", "tab\tnew\nline\rcr",
		"bell\a back\b feed\f nul\x00 unit\x1f del\x7f", "naïve Ωmega 日本 🚀",
		"sep\u2028para\u2029", "bad\xffutf8\xc3", "",
	} {
		add("name-"+string(rune('a'+i)), func(k *kernel.Kernel) {
			k.Name = name
			k.Params[0].Name = name
			k.Locals[0].Name = name
		})
	}
	add("undefined-opcode", func(k *kernel.Kernel) { k.Code[0].Op = kernel.OpExit + 1 })
	add("undefined-opcode-max", func(k *kernel.Kernel) { k.Code[0].Op = 255 })
	add("undefined-space", func(k *kernel.Kernel) {
		k.Code[0] = kernel.Instr{Op: kernel.OpLd, Dst: 0, Pred: -1, Space: kernel.SpaceShared + 1, Bytes: 4}
	})
	add("undefined-special", func(k *kernel.Kernel) {
		k.Code[0].Src[0] = kernel.Spec(kernel.Special(kernel.NumSpecials))
	})
	add("undefined-operand-kind", func(k *kernel.Kernel) { k.Code[0].Src[1] = kernel.Operand{Kind: 9} })
	add("undefined-param-kind", func(k *kernel.Kernel) { k.Params[1].Kind = 2 })
	return cases
}

// TestEncodeJSONMatchesMarshalIndentOnEdgeCases runs every edge-case kernel.
func TestEncodeJSONMatchesMarshalIndentOnEdgeCases(t *testing.T) {
	for name, k := range edgeKernels() {
		assertEncodesLikeReference(t, name, k)
	}
}
