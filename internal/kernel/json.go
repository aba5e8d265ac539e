package kernel

// IR (de)serialization. Kernels round-trip losslessly through JSON so the
// fuzzer's bug corpus (testdata/bugcorpus/) can persist minimized
// reproducers and replay them forever. Immediates are int64 bit patterns
// (float immediates go through F2B), and encoding/json carries int64
// exactly, so every immediate — including NaN payloads and -0.0 — survives
// encode/decode byte-identically.

import (
	"encoding/json"
	"fmt"
)

// opByName inverts opNames for decoding.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// specialByName inverts specialNames for decoding.
var specialByName = func() map[string]Special {
	m := make(map[string]Special, len(specialNames))
	for s, name := range specialNames {
		m[name] = Special(s)
	}
	return m
}()

// operandJSON is the wire form of an Operand: exactly one field set.
// OperandNone encodes as JSON null.
type operandJSON struct {
	Reg   *int    `json:"reg,omitempty"`
	Imm   *int64  `json:"imm,omitempty"`
	Spec  *string `json:"spec,omitempty"`
	Param *int    `json:"param,omitempty"`
}

// MarshalJSON encodes the operand as {"reg":n}, {"imm":n}, {"spec":"%tid.x"},
// {"param":n}, or null for OperandNone.
func (o Operand) MarshalJSON() ([]byte, error) {
	switch o.Kind {
	case OperandNone:
		return []byte("null"), nil
	case OperandReg:
		return json.Marshal(operandJSON{Reg: &o.Reg})
	case OperandImm:
		return json.Marshal(operandJSON{Imm: &o.Imm})
	case OperandSpecial:
		if int(o.Special) >= NumSpecials {
			return nil, fmt.Errorf("kernel: marshal: special %d undefined", o.Special)
		}
		s := o.Special.String()
		return json.Marshal(operandJSON{Spec: &s})
	case OperandParam:
		return json.Marshal(operandJSON{Param: &o.Param})
	}
	return nil, fmt.Errorf("kernel: marshal: operand kind %d undefined", o.Kind)
}

// UnmarshalJSON decodes the forms produced by MarshalJSON.
func (o *Operand) UnmarshalJSON(data []byte) error {
	*o = Operand{}
	if string(data) == "null" {
		return nil
	}
	var w operandJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	set := 0
	if w.Reg != nil {
		set++
		*o = Reg(*w.Reg)
	}
	if w.Imm != nil {
		set++
		*o = Imm(*w.Imm)
	}
	if w.Spec != nil {
		set++
		s, ok := specialByName[*w.Spec]
		if !ok {
			return fmt.Errorf("kernel: unmarshal: unknown special %q", *w.Spec)
		}
		*o = Spec(s)
	}
	if w.Param != nil {
		set++
		*o = Param(*w.Param)
	}
	if set != 1 {
		return fmt.Errorf("kernel: unmarshal: operand %s must set exactly one of reg/imm/spec/param", data)
	}
	return nil
}

// instrJSON is the wire form of an Instr. Dst/Pred use pointers so the -1
// "none" sentinel can be omitted while target index 0 stays representable.
type instrJSON struct {
	Op     string    `json:"op"`
	Dst    *int      `json:"dst,omitempty"`
	Src    []Operand `json:"src,omitempty"`
	Pred   *int      `json:"pred,omitempty"`
	PNeg   bool      `json:"pneg,omitempty"`
	Space  *Space    `json:"space,omitempty"`
	Bytes  int       `json:"bytes,omitempty"`
	F32    bool      `json:"f32,omitempty"`
	Label  *int      `json:"label,omitempty"`
	Reconv *int      `json:"reconv,omitempty"`
}

// MarshalJSON encodes the instruction with its opcode mnemonic and only the
// fields its opcode uses; trailing None source operands are trimmed.
func (in Instr) MarshalJSON() ([]byte, error) {
	name := opNames[in.Op]
	if int(in.Op) >= len(opNames) || name == "" {
		return nil, fmt.Errorf("kernel: marshal: opcode %d undefined", in.Op)
	}
	w := instrJSON{Op: name, PNeg: in.PNeg}
	if in.Dst != -1 {
		w.Dst = &in.Dst
	}
	if in.Pred != -1 {
		w.Pred = &in.Pred
	}
	last := -1
	for i, src := range in.Src {
		if src.Kind != OperandNone {
			last = i
		}
	}
	if last >= 0 {
		w.Src = append([]Operand(nil), in.Src[:last+1]...)
	}
	if in.Op.IsMemory() {
		sp := in.Space
		w.Space = &sp
		w.Bytes = in.Bytes
		w.F32 = in.F32
	}
	if in.Op.IsBranch() {
		l := in.Label
		w.Label = &l
		// The builder records a reconvergence point on every branch kind
		// (uniform branches carry it too, equal to their target); preserve
		// it for all of them so round-trips are lossless.
		if in.Reconv != 0 {
			r := in.Reconv
			w.Reconv = &r
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the form produced by MarshalJSON. Absent dst/pred
// decode to -1; absent label/reconv decode to 0.
func (in *Instr) UnmarshalJSON(data []byte) error {
	var w instrJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	op, ok := opByName[w.Op]
	if !ok {
		return fmt.Errorf("kernel: unmarshal: unknown opcode %q", w.Op)
	}
	if len(w.Src) > len(in.Src) {
		return fmt.Errorf("kernel: unmarshal: %d source operands, max %d", len(w.Src), len(in.Src))
	}
	*in = Instr{Op: op, Dst: -1, Pred: -1, PNeg: w.PNeg, Bytes: w.Bytes, F32: w.F32}
	if w.Dst != nil {
		in.Dst = *w.Dst
	}
	if w.Pred != nil {
		in.Pred = *w.Pred
	}
	copy(in.Src[:], w.Src)
	if w.Space != nil {
		in.Space = *w.Space
	}
	if w.Label != nil {
		in.Label = *w.Label
	}
	if w.Reconv != nil {
		in.Reconv = *w.Reconv
	}
	// Canonicalize: zero the fields this opcode does not use, so decoding
	// is idempotent (Marshal omits them; stray values — e.g. from JSON's
	// case-insensitive field matching — must not survive a round trip).
	if !in.Op.IsMemory() {
		in.Space, in.Bytes, in.F32 = 0, 0, false
	}
	if !in.Op.IsBranch() {
		in.Label, in.Reconv = 0, 0
	}
	return nil
}

// MarshalSpace/UnmarshalSpace: spaces travel as their mnemonic strings.
func (s Space) MarshalJSON() ([]byte, error) {
	if s > SpaceShared {
		return nil, fmt.Errorf("kernel: marshal: space %d undefined", s)
	}
	return json.Marshal(s.String())
}

func (s *Space) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "global":
		*s = SpaceGlobal
	case "local":
		*s = SpaceLocal
	case "shared":
		*s = SpaceShared
	default:
		return fmt.Errorf("kernel: unmarshal: unknown space %q", name)
	}
	return nil
}

// kindNames maps ParamKind values for the JSON codec.
func (p ParamKind) MarshalJSON() ([]byte, error) {
	switch p {
	case ParamScalar:
		return json.Marshal("scalar")
	case ParamBuffer:
		return json.Marshal("buffer")
	}
	return nil, fmt.Errorf("kernel: marshal: param kind %d undefined", p)
}

func (p *ParamKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "scalar":
		*p = ParamScalar
	case "buffer":
		*p = ParamBuffer
	default:
		return fmt.Errorf("kernel: unmarshal: unknown param kind %q", name)
	}
	return nil
}

// EncodeJSON serializes the kernel (indented, stable field order).
func (k *Kernel) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(k, "", "  ")
}

// DecodeJSON parses a kernel serialized by EncodeJSON and validates it.
func DecodeJSON(data []byte) (*Kernel, error) {
	var k Kernel
	if err := json.Unmarshal(data, &k); err != nil {
		return nil, fmt.Errorf("kernel: decode: %w", err)
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &k, nil
}
