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
	"strconv"
	"unicode/utf8"
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
	if int(in.Op) >= len(opNames) || opNames[in.Op] == "" {
		return nil, fmt.Errorf("kernel: marshal: opcode %d undefined", in.Op)
	}
	w := instrJSON{Op: opNames[in.Op], PNeg: in.PNeg}
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

// EncodeJSON serializes the kernel (indented, stable field order) into a
// new buffer; see AppendJSON.
func (k *Kernel) EncodeJSON() ([]byte, error) {
	return k.AppendJSON(make([]byte, 0, 256+160*len(k.Code)))
}

// AppendJSON appends what EncodeJSON returns to dst. The output is exactly
// json.MarshalIndent(k, "", "  ") — the MarshalJSON methods above are the
// reference — but it is appended into one buffer instead of marshaling
// every instruction and operand through reflection. A kernel with an
// undefined opcode, space, special, operand kind or parameter kind goes to
// encoding/json, which reports the error; dst is then returned unchanged.
func (k *Kernel) AppendJSON(dst []byte) ([]byte, error) {
	e := kernelEncoder{buf: dst}
	if e.kernel(k) {
		return e.buf, nil
	}
	b, err := json.MarshalIndent(k, "", "  ")
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// kernelEncoder appends the indented JSON form of a kernel. Each method
// reports false for a value MarshalJSON would reject.
type kernelEncoder struct{ buf []byte }

// field starts an object member at depth: the separating comma unless it is
// the first member, a new indented line, and the key. Keys are plain ASCII
// identifiers and need no escaping.
func (e *kernelEncoder) field(depth int, first bool, key string) {
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.newline(depth)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, `": `...)
}

func (e *kernelEncoder) newline(depth int) {
	e.buf = append(e.buf, '\n')
	for ; depth > 0; depth-- {
		e.buf = append(e.buf, "  "...)
	}
}

func (e *kernelEncoder) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

func (e *kernelEncoder) bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// list appends an array of n elements at depth, or null for a nil slice;
// elem appends element i, whose members sit one level deeper.
func (e *kernelEncoder) list(depth, n int, isNil bool, elem func(i int) bool) bool {
	switch {
	case isNil:
		e.buf = append(e.buf, "null"...)
		return true
	case n == 0:
		e.buf = append(e.buf, "[]"...)
		return true
	}
	e.buf = append(e.buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.newline(depth + 1)
		if !elem(i) {
			return false
		}
	}
	e.newline(depth)
	e.buf = append(e.buf, ']')
	return true
}

func (e *kernelEncoder) kernel(k *Kernel) bool {
	e.buf = append(e.buf, '{')
	e.field(1, true, "Name")
	e.buf = appendJSONString(e.buf, k.Name)
	e.field(1, false, "Params")
	if !e.list(1, len(k.Params), k.Params == nil, func(i int) bool {
		p := &k.Params[i]
		e.buf = append(e.buf, '{')
		e.field(3, true, "Name")
		e.buf = appendJSONString(e.buf, p.Name)
		e.field(3, false, "Kind")
		switch p.Kind {
		case ParamScalar:
			e.buf = append(e.buf, `"scalar"`...)
		case ParamBuffer:
			e.buf = append(e.buf, `"buffer"`...)
		default:
			return false
		}
		e.field(3, false, "ReadOnly")
		e.bool(p.ReadOnly)
		e.newline(2)
		e.buf = append(e.buf, '}')
		return true
	}) {
		return false
	}
	e.field(1, false, "Locals")
	e.list(1, len(k.Locals), k.Locals == nil, func(i int) bool {
		lv := &k.Locals[i]
		e.buf = append(e.buf, '{')
		e.field(3, true, "Name")
		e.buf = appendJSONString(e.buf, lv.Name)
		e.field(3, false, "Bytes")
		e.int(int64(lv.Bytes))
		e.newline(2)
		e.buf = append(e.buf, '}')
		return true
	})
	e.field(1, false, "SharedBytes")
	e.int(int64(k.SharedBytes))
	e.field(1, false, "NumRegs")
	e.int(int64(k.NumRegs))
	e.field(1, false, "Code")
	if !e.list(1, len(k.Code), k.Code == nil, func(i int) bool { return e.instr(&k.Code[i]) }) {
		return false
	}
	e.newline(0)
	e.buf = append(e.buf, '}')
	return true
}

// instr appends one Code element (members at depth 3), mirroring
// Instr.MarshalJSON field for field.
func (e *kernelEncoder) instr(in *Instr) bool {
	if int(in.Op) >= len(opNames) || opNames[in.Op] == "" {
		return false
	}
	e.buf = append(e.buf, '{')
	e.field(3, true, "op")
	e.buf = appendJSONString(e.buf, opNames[in.Op])
	if in.Dst != -1 {
		e.field(3, false, "dst")
		e.int(int64(in.Dst))
	}
	last := -1
	for i, src := range in.Src {
		if src.Kind != OperandNone {
			last = i
		}
	}
	if last >= 0 {
		e.field(3, false, "src")
		if !e.list(3, last+1, false, func(i int) bool { return e.operand(in.Src[i]) }) {
			return false
		}
	}
	if in.Pred != -1 {
		e.field(3, false, "pred")
		e.int(int64(in.Pred))
	}
	if in.PNeg {
		e.field(3, false, "pneg")
		e.bool(true)
	}
	if in.Op.IsMemory() {
		if in.Space > SpaceShared {
			return false
		}
		e.field(3, false, "space")
		e.buf = appendJSONString(e.buf, in.Space.String())
		if in.Bytes != 0 {
			e.field(3, false, "bytes")
			e.int(int64(in.Bytes))
		}
		if in.F32 {
			e.field(3, false, "f32")
			e.bool(true)
		}
	}
	if in.Op.IsBranch() {
		e.field(3, false, "label")
		e.int(int64(in.Label))
		if in.Reconv != 0 {
			e.field(3, false, "reconv")
			e.int(int64(in.Reconv))
		}
	}
	e.newline(2)
	e.buf = append(e.buf, '}')
	return true
}

// operand appends one src element (its single member at depth 5), mirroring
// Operand.MarshalJSON.
func (e *kernelEncoder) operand(o Operand) bool {
	if o.Kind == OperandNone {
		e.buf = append(e.buf, "null"...)
		return true
	}
	e.buf = append(e.buf, '{')
	switch o.Kind {
	case OperandReg:
		e.field(5, true, "reg")
		e.int(int64(o.Reg))
	case OperandImm:
		e.field(5, true, "imm")
		e.int(o.Imm)
	case OperandSpecial:
		if int(o.Special) >= NumSpecials {
			return false
		}
		e.field(5, true, "spec")
		e.buf = appendJSONString(e.buf, o.Special.String())
	case OperandParam:
		e.field(5, true, "param")
		e.int(int64(o.Param))
	default:
		return false
	}
	e.newline(4)
	e.buf = append(e.buf, '}')
	return true
}

// appendJSONString appends s as a JSON string the way encoding/json does
// with its default HTML escaping: '"' and '\' are backslash-escaped, \b,
// \f, \n, \r and \t use their short forms, other control bytes and
// '<', '>' and '&' become \u00XX, invalid UTF-8 becomes \ufffd, and
// U+2028/U+2029 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeJSON parses a kernel serialized by EncodeJSON and validates it.
// EncodeJSON's exact output takes the canonical fast path (decode.go); any
// other input, re-indented, hand-edited or malformed, goes to encoding/json.
func DecodeJSON(data []byte) (*Kernel, error) {
	k, ok := decodeCanonical(data)
	if !ok {
		k = new(Kernel)
		if err := json.Unmarshal(data, k); err != nil {
			return nil, fmt.Errorf("kernel: decode: %w", err)
		}
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}
