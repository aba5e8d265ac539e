package kernel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpushield/internal/kernel"
	"gpushield/internal/kernelfuzz"
)

// assertDecodesLikeReference checks DecodeJSON on data against the
// reference, json.Unmarshal followed by Validate: DecodeJSON fails exactly
// when the reference fails, with the same message, and otherwise returns the
// reference's kernel. Whatever the canonical fast path accepts must decode to
// the kernel encoding/json builds and must be canonical: EncodeJSON writes it
// back byte for byte. It reports whether the fast path took data.
func assertDecodesLikeReference(t testing.TB, label string, data []byte) bool {
	t.Helper()
	var want kernel.Kernel
	jsonErr := json.Unmarshal(data, &want)
	wantErr := fmt.Errorf("kernel: decode: %w", jsonErr)
	if jsonErr == nil {
		wantErr = want.Validate()
	}
	fast, ok := kernel.DecodeCanonical(data)
	if ok {
		if jsonErr != nil {
			t.Fatalf("%s: fast path accepted what encoding/json rejects (%v):\n%q", label, jsonErr, data)
		}
		if !reflect.DeepEqual(fast, &want) {
			t.Fatalf("%s: fast path decoded\n%#v\nencoding/json decoded\n%#v", label, fast, &want)
		}
		if enc, err := fast.EncodeJSON(); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("%s: fast path accepted non-canonical input (re-encode error %v):\n%q", label, err, data)
		}
	}
	got, err := kernel.DecodeJSON(data)
	switch {
	case (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: DecodeJSON error %v, reference error %v", label, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, &want):
		t.Fatalf("%s: DecodeJSON returned\n%#v\nreference\n%#v", label, got, &want)
	}
	return ok
}

// assertFastPath encodes k and checks that DecodeJSON takes the canonical
// fast path on the result exactly when fast is true. A kernel EncodeJSON
// rejects is skipped.
func assertFastPath(t *testing.T, label string, k *kernel.Kernel, fast bool) {
	t.Helper()
	enc, err := k.EncodeJSON()
	if err != nil {
		return
	}
	if got := assertDecodesLikeReference(t, label, enc); got != fast {
		t.Fatalf("%s: fast path taken = %v, want %v:\n%s", label, got, fast, enc)
	}
}

// TestDecodeJSONFastPathOnGenerated runs EncodeJSON's output for every
// kernel of 1,200 generated cases, every plant class included: each must
// take the fast path and decode like the reference.
func TestDecodeJSONFastPathOnGenerated(t *testing.T) {
	n := 0
	classes := map[kernelfuzz.PlantClass]bool{}
	for _, seed := range []int64{1, 7, 12345} {
		for i := 0; i < 400; i++ {
			c := kernelfuzz.Generate(seed, i)
			classes[c.Class] = true
			if c.Malformed != nil {
				assertFastPath(t, c.Malformed.Name, c.Malformed.Kernel, true)
				n++
				continue
			}
			kernels, err := kernelfuzz.BuildKernels(c)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, i, err)
			}
			for _, k := range kernels {
				assertFastPath(t, k.Name, k, true)
				n++
			}
		}
	}
	if n < 1000 {
		t.Fatalf("only %d kernels compared", n)
	}
	for c := kernelfuzz.PlantNone; c <= kernelfuzz.PlantMalformed; c++ {
		if !classes[c] {
			t.Errorf("plant class %s not generated", c)
		}
	}
}

// TestDecodeJSONOnCorpus runs every bug-corpus kernel twice: as committed,
// re-indented inside its entry, which must fall back to encoding/json, and
// re-encoded by EncodeJSON, which must take the fast path.
func TestDecodeJSONOnCorpus(t *testing.T) {
	entries, err := kernelfuzz.LoadDir("../../testdata/bugcorpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty bug corpus")
	}
	for _, e := range entries {
		for li, l := range e.Launches {
			label := fmt.Sprintf("%s launch %d", e.Name, li)
			if assertDecodesLikeReference(t, label, l.Kernel) {
				t.Fatalf("%s: re-indented kernel took the fast path", label)
			}
			var k kernel.Kernel
			if err := json.Unmarshal(l.Kernel, &k); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertFastPath(t, label+" re-encoded", &k, true)
		}
	}
}

// plainName reports whether kernelEncoder copies s without escapes, which is
// what the fast path requires of every name.
func plainName(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// TestDecodeJSONOnEdgeCases runs the encoder's edge-case kernels: nil and
// empty slices, every opcode × space, every special, extreme immediates and
// registers take the fast path; names that need escaping fall back.
func TestDecodeJSONOnEdgeCases(t *testing.T) {
	for name, k := range edgeKernels() {
		plain := plainName(k.Name)
		for _, p := range k.Params {
			plain = plain && plainName(p.Name)
		}
		for _, lv := range k.Locals {
			plain = plain && plainName(lv.Name)
		}
		assertFastPath(t, name, k, plain)
	}
}

// perturbBase is a valid kernel whose encoding carries every member the
// encoder can emit: both parameter kinds, a local, shared memory, every
// operand kind, a null operand, a guard with pneg, bytes and f32, and
// branches with and without reconv.
func perturbBase() *kernel.Kernel {
	return &kernel.Kernel{
		Name:        "perturb",
		Params:      []kernel.ParamSpec{{Name: "buf", Kind: kernel.ParamBuffer, ReadOnly: true}, {Name: "n", Kind: kernel.ParamScalar}},
		Locals:      []kernel.LocalVar{{Name: "tmp", Bytes: 16}},
		SharedBytes: 64,
		NumRegs:     4,
		Code: []kernel.Instr{
			{Op: kernel.OpMov, Dst: 0, Pred: -1, Src: [3]kernel.Operand{kernel.Spec(kernel.SpecGlobalTID)}},
			{Op: kernel.OpSetLT, Dst: 1, Pred: -1, Src: [3]kernel.Operand{kernel.Reg(0), kernel.Param(1)}},
			{Op: kernel.OpBraDiv, Dst: -1, Pred: 1, PNeg: true, Label: 5, Reconv: 5},
			{Op: kernel.OpLd, Dst: 2, Pred: -1, Src: [3]kernel.Operand{kernel.Param(0), kernel.Reg(0)}, Space: kernel.SpaceGlobal, Bytes: 4, F32: true},
			{Op: kernel.OpSt, Dst: -1, Pred: -1, Src: [3]kernel.Operand{kernel.Imm(0), kernel.Imm(0), kernel.Reg(2)}, Space: kernel.SpaceLocal, Bytes: 8},
			{Op: kernel.OpAtomAdd, Dst: 3, Pred: -1, Src: [3]kernel.Operand{kernel.Param(0), {}, kernel.Imm(-7)}, Space: kernel.SpaceGlobal, Bytes: 8},
			{Op: kernel.OpBraUni, Dst: -1, Pred: -1, Label: 7},
			{Op: kernel.OpExit, Dst: -1, Pred: -1},
		},
	}
}

// perturbations are edits of perturbBase's encoding: each replaces the
// first occurrence of old with new. None of the results is canonical, so
// each must fall back to encoding/json; some of them encoding/json accepts
// (often with a different kernel), others it rejects.
var perturbations = []struct{ name, old, new string }{
	{"ws/no-space-after-colon", `"Name": "perturb"`, `"Name":"perturb"`},
	{"ws/space-before-colon", `"ReadOnly": true`, `"ReadOnly" : true`},
	{"ws/deeper-indent", "\n  \"Params\"", "\n   \"Params\""},
	{"ws/tab-indent", "\n  \"Params\"", "\n\t\"Params\""},
	{"ws/crlf", "{\n  \"Name\"", "{\r\n  \"Name\""},
	{"ws/leading-space", "{\n  \"Name\"", " {\n  \"Name\""},
	{"ws/operand-indent", "{\n          \"spec\"", "{\n           \"spec\""},
	{"ws/closing-brace-indent", "\"op\": \"exit\"\n    }", "\"op\": \"exit\"\n     }"},
	{"ws/compact-array", "\"Locals\": [\n    {", "\"Locals\": [{"},
	{"order/kernel", "\"SharedBytes\": 64,\n  \"NumRegs\": 4", "\"NumRegs\": 4,\n  \"SharedBytes\": 64"},
	{"order/param", "\"Name\": \"buf\",\n      \"Kind\": \"buffer\"", "\"Kind\": \"buffer\",\n      \"Name\": \"buf\""},
	{"order/op-not-first", "\"op\": \"mov\",\n      \"dst\": 0", "\"dst\": 0,\n      \"op\": \"mov\""},
	{"order/pred-pneg", "\"pred\": 1,\n      \"pneg\": true", "\"pneg\": true,\n      \"pred\": 1"},
	{"order/label-reconv", "\"label\": 5,\n      \"reconv\": 5", "\"reconv\": 5,\n      \"label\": 5"},
	{"order/space-bytes", "\"space\": \"local\",\n      \"bytes\": 8", "\"bytes\": 8,\n      \"space\": \"local\""},
	{"dup/kernel", "\"NumRegs\": 4,", "\"NumRegs\": 3,\n  \"NumRegs\": 4,"},
	{"dup/op", "\"op\": \"exit\"", "\"op\": \"mov\",\n      \"op\": \"exit\""},
	{"dup/dst", "\"dst\": 3,", "\"dst\": 3,\n      \"dst\": 2,"},
	{"case/Name", `"Name": "perturb"`, `"name": "perturb"`},
	{"case/ReadOnly", `"ReadOnly": true`, `"readonly": true`},
	{"case/op", `"op": "exit"`, `"Op": "exit"`},
	{"case/dst", `"dst": 0`, `"DST": 0`},
	{"case/reg", `"reg": 2`, `"Reg": 2`},
	{"case/space", `"space": "local"`, `"Space": "local"`},
	{"omitted/dst-minus-one", "\"op\": \"st\",\n", "\"op\": \"st\",\n      \"dst\": -1,\n"},
	{"omitted/pred-minus-one", "\"op\": \"bra\",\n", "\"op\": \"bra\",\n      \"pred\": -1,\n"},
	{"omitted/pneg-false", "\"pneg\": true", "\"pneg\": false"},
	{"omitted/pneg-false-inserted", "\"op\": \"bra\",\n", "\"op\": \"bra\",\n      \"pneg\": false,\n"},
	{"omitted/bytes-zero", "\"bytes\": 4", "\"bytes\": 0"},
	{"omitted/f32-false", "\"f32\": true", "\"f32\": false"},
	{"omitted/reconv-zero", "\"reconv\": 5", "\"reconv\": 0"},
	{"omitted/src-empty", "\"op\": \"exit\"", "\"op\": \"exit\",\n      \"src\": []"},
	{"omitted/src-null", "\"op\": \"exit\"", "\"op\": \"exit\",\n      \"src\": null"},
	{"omitted/src-all-null", "\"op\": \"exit\"", "\"op\": \"exit\",\n      \"src\": [\n        null\n      ]"},
	{"missing/space", "\"space\": \"local\",\n      ", ""},
	{"missing/label", "\"op\": \"bra\",\n      \"label\": 7", "\"op\": \"bra\""},
	{"missing/readonly", ",\n      \"ReadOnly\": false", ""},
	{"extra/space-on-alu", "\"op\": \"exit\"", "\"op\": \"exit\",\n      \"space\": \"global\""},
	{"extra/label-on-alu", "\"op\": \"exit\"", "\"op\": \"exit\",\n      \"label\": 3"},
	{"extra/bytes-on-alu", "\"op\": \"exit\"", "\"op\": \"exit\",\n      \"bytes\": 0"},
	{"extra/unknown-key", "\"NumRegs\": 4,", "\"NumRegs\": 4,\n  \"Extra\": 1,"},
	{"src/trailing-null", "\"spec\": \"%gtid\"\n        }\n      ]", "\"spec\": \"%gtid\"\n        },\n        null\n      ]"},
	{"src/four-operands", "\"reg\": 2\n        }\n      ]", "\"reg\": 2\n        },\n        {\n          \"reg\": 1\n        }\n      ]"},
	{"src/two-keys", "\"reg\": 2\n", "\"reg\": 2,\n          \"imm\": 1\n"},
	{"src/empty-object", "{\n          \"reg\": 2\n        }", "{}"},
	{"num/leading-zero", `"NumRegs": 4`, `"NumRegs": 04`},
	{"num/neg-leading-zero", `"imm": -7`, `"imm": -07`},
	{"num/zero-zero", `"imm": 0`, `"imm": 00`},
	{"num/minus-zero", `"imm": 0`, `"imm": -0`},
	{"num/minus-zero-label", `"label": 7`, `"label": -0`},
	{"num/exponent", `"imm": -7`, `"imm": 1e2`},
	{"num/fraction", `"NumRegs": 4`, `"NumRegs": 4.0`},
	{"num/plus", `"imm": -7`, `"imm": +7`},
	{"num/quoted", `"imm": -7`, `"imm": "7"`},
	{"num/above-int64", `"imm": -7`, `"imm": 9223372036854775808`},
	{"num/below-int64", `"imm": -7`, `"imm": -9223372036854775809`},
	{"num/twenty-digits", `"imm": -7`, `"imm": 18446744073709551616`},
	{"num/null", `"SharedBytes": 64`, `"SharedBytes": null`},
	{"bool/number", `"ReadOnly": true`, `"ReadOnly": 1`},
	{"bool/null", `"ReadOnly": true`, `"ReadOnly": null`},
	{"str/escaped-plain", `"Name": "perturb"`, `"Name": "per\u0074urb"`},
	{"str/escaped-quote", `"Name": "perturb"`, `"Name": "per\"turb"`},
	{"str/escaped-backslash", `"Name": "perturb"`, `"Name": "per\\turb"`},
	{"str/raw-html", `"Name": "perturb"`, `"Name": "per<t>&urb"`},
	{"str/escaped-html", `"Name": "perturb"`, `"Name": "per\u003cturb"`},
	{"str/raw-non-ascii", `"Name": "perturb"`, `"Name": "perturbé"`},
	{"str/raw-invalid-utf8", `"Name": "perturb"`, "\"Name\": \"per\xffturb\""},
	{"str/raw-control", `"Name": "perturb"`, "\"Name\": \"per\x01turb\""},
	{"str/unterminated", `"Name": "perturb"`, `"Name": "perturb`},
	{"str/escaped-op", `"op": "exit"`, `"op": "ex\u0069t"`},
	{"str/unknown-op", `"op": "exit"`, `"op": "EXIT"`},
	{"str/unknown-special", `"%gtid"`, `"%GTID"`},
	{"str/unknown-kind", `"buffer"`, `"Buffer"`},
	{"str/unknown-space", `"local"`, `"LOCAL"`},
	{"trailing/x", "\n  ]\n}", "\n  ]\n}x"},
	{"trailing/space", "\n  ]\n}", "\n  ]\n} "},
	{"trailing/newline", "\n  ]\n}", "\n  ]\n}\n"},
	{"trailing/object", "\n  ]\n}", "\n  ]\n}{}"},
	{"trailing/null", "\n  ]\n}", "\n  ]\n}null"},
	{"trailing/brace", "\n  ]\n}", "\n  ]\n}}"},
}

// perturbed returns perturbBase's canonical encoding and every perturbation
// of it, by name.
func perturbed(t testing.TB) ([]byte, map[string][]byte) {
	base, err := perturbBase().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(perturbations))
	for _, p := range perturbations {
		if !bytes.Contains(base, []byte(p.old)) {
			t.Fatalf("%s: %q not in the base encoding", p.name, p.old)
		}
		out[p.name] = bytes.Replace(base, []byte(p.old), []byte(p.new), 1)
	}
	return base, out
}

// TestDecodeJSONPerturbations runs the perturbation table and every
// truncation of the canonical encoding: all must fall back to encoding/json
// and decode like the reference.
func TestDecodeJSONPerturbations(t *testing.T) {
	base, table := perturbed(t)
	if !assertDecodesLikeReference(t, "base", base) {
		t.Fatalf("canonical encoding missed the fast path:\n%s", base)
	}
	for name, data := range table {
		if assertDecodesLikeReference(t, name, data) {
			t.Errorf("%s: non-canonical input took the fast path:\n%s", name, data)
		}
	}
	for i := 0; i < len(base); i++ {
		if assertDecodesLikeReference(t, fmt.Sprintf("truncated at %d", i), base[:i]) {
			t.Fatalf("truncation at %d took the fast path", i)
		}
	}
}

// FuzzDecodeJSON checks the differential properties of
// assertDecodesLikeReference on arbitrary input, seeded with the canonical
// encodings of generated and edge-case kernels and the perturbation table.
func FuzzDecodeJSON(f *testing.F) {
	base, table := perturbed(f)
	f.Add(base)
	for _, p := range perturbations {
		f.Add(table[p.name])
	}
	for i := 0; i < 7; i++ {
		c := kernelfuzz.Generate(1, i)
		kernels, err := kernelfuzz.BuildKernels(c)
		if err != nil {
			continue
		}
		for _, k := range kernels {
			if enc, err := k.EncodeJSON(); err == nil {
				f.Add(enc)
			}
		}
	}
	for _, k := range edgeKernels() {
		if enc, err := k.EncodeJSON(); err == nil {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertDecodesLikeReference(t, "fuzz", data)
	})
}
