package kernel

import (
	"sync"
	"unicode/utf8"
)

// The canonical fast path of DecodeJSON. EncodeJSON writes exactly one byte
// sequence per kernel, and kernelDecoder reads that sequence back token for
// token, mirroring kernelEncoder: the fixed member order and indentation,
// strings that kernelEncoder copies without escapes, integers exactly as
// strconv.AppendInt writes them, only the optional members Instr.MarshalJSON
// emits for the opcode's class, and nothing after the closing brace. At the
// first byte it does not expect it gives up, and DecodeJSON hands the whole
// input to encoding/json instead, which stays the reference: whatever the
// fast path accepts, encoding/json decodes to the same kernel, so every error
// comes from encoding/json or from Validate.

// decodeCanonical decodes data if it is byte for byte what EncodeJSON writes
// for some kernel and reports false otherwise.
func decodeCanonical(data []byte) (*Kernel, bool) {
	d := kernelDecoder{data: data, scratch: scratchPool.Get().(*decodeScratch)}
	k := new(Kernel)
	ok := d.kernel(k) && d.pos == len(data)
	clear(d.scratch.params) // the names would pin their kernel's strings
	scratchPool.Put(d.scratch)
	if !ok {
		return nil, false
	}
	return k, true
}

// kernelDecoder consumes the input from pos. Each method reports false at
// the first byte that kernelEncoder would not have written there.
type kernelDecoder struct {
	data    []byte
	pos     int
	scratch *decodeScratch
}

// decodeScratch holds the Params and Code elements while they are decoded:
// a list's length is known only at its closing bracket, and the kernel then
// gets a copy of exactly that length.
type decodeScratch struct {
	params []ParamSpec
	code   []Instr
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// exact returns the n decoded elements of a list as a slice of exactly
// that length: nil for null (n < 0), as encoding/json decodes it, and an
// empty slice for [].
func exact[T any](s []T, n int) []T {
	if n < 0 {
		return nil
	}
	return append(make([]T, 0, n), s[:n]...)
}

func (d *kernelDecoder) byte(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// lit consumes s.
func (d *kernelDecoder) lit(s string) bool {
	end := d.pos + len(s)
	if end > len(d.data) || string(d.data[d.pos:end]) != s {
		return false
	}
	d.pos = end
	return true
}

// newline consumes a line break and the indentation of depth.
func (d *kernelDecoder) newline(depth int) bool {
	end := d.pos + 1 + 2*depth
	if end > len(d.data) || d.data[d.pos] != '\n' {
		return false
	}
	for _, c := range d.data[d.pos+1 : end] {
		if c != ' ' {
			return false
		}
	}
	d.pos = end
	return true
}

// field consumes what kernelEncoder.field writes: the separating comma
// unless first, the indentation of depth and the key.
func (d *kernelDecoder) field(depth int, first bool, key string) bool {
	return (first || d.byte(',')) && d.newline(depth) && d.byte('"') && d.lit(key) && d.lit(`": `)
}

// optional consumes a member that is not the first if its key is key, and
// otherwise leaves the position where it was.
func (d *kernelDecoder) optional(depth int, key string) bool {
	p := d.pos
	if d.field(depth, false, key) {
		return true
	}
	d.pos = p
	return false
}

// str consumes a string that kernelEncoder copies verbatim: printable ASCII
// without '"', '\\', '<', '>' or '&'. The result aliases the input.
func (d *kernelDecoder) str() ([]byte, bool) {
	if !d.byte('"') {
		return nil, false
	}
	for p := d.pos; p < len(d.data); p++ {
		switch c := d.data[p]; {
		case c == '"':
			s := d.data[d.pos:p]
			d.pos = p + 1
			return s, true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\' || c == '<' || c == '>' || c == '&':
			return nil, false
		}
	}
	return nil, false
}

// int64 consumes an integer as strconv.AppendInt writes it: an optional
// minus sign, then 0 or digits without a leading zero, never -0, in range.
func (d *kernelDecoder) int64() (int64, bool) {
	neg := d.byte('-')
	start := d.pos
	var u uint64
	for ; d.pos < len(d.data) && d.data[d.pos]-'0' <= 9; d.pos++ {
		if d.pos-start == 19 {
			return 0, false // 20 digits are outside int64
		}
		u = u*10 + uint64(d.data[d.pos]-'0')
	}
	n := d.pos - start
	switch {
	case n == 0:
		return 0, false
	case d.data[start] == '0' && (n > 1 || neg):
		return 0, false // a leading zero, or -0
	case neg:
		return -int64(u), u <= 1<<63
	}
	return int64(u), u < 1<<63
}

// int consumes an integer that fits in an int.
func (d *kernelDecoder) int() (int, bool) {
	v, ok := d.int64()
	return int(v), ok && int64(int(v)) == v
}

// list consumes what kernelEncoder.list writes at depth: null, [] or the
// indented elements, calling elem for element i after its indentation. It
// returns the number of elements, -1 for null. Callers leave a slice nil
// for null and make it empty for 0, as encoding/json does.
func (d *kernelDecoder) list(depth int, elem func(i int) bool) (int, bool) {
	switch {
	case d.lit("null"):
		return -1, true
	case d.lit("[]"):
		return 0, true
	case !d.byte('['):
		return 0, false
	}
	n := 0
	for ; n == 0 || d.byte(','); n++ {
		if !d.newline(depth+1) || !elem(n) {
			return 0, false
		}
	}
	return n, d.newline(depth) && d.byte(']')
}

func (d *kernelDecoder) kernel(k *Kernel) bool {
	if !d.byte('{') || !d.field(1, true, "Name") {
		return false
	}
	name, ok := d.str()
	if !ok || !d.field(1, false, "Params") {
		return false
	}
	k.Name = string(name)
	ps := d.scratch.params[:0]
	n, ok := d.list(1, func(int) bool {
		ps = append(ps, ParamSpec{})
		return d.param(&ps[len(ps)-1])
	})
	d.scratch.params = ps
	if !ok || !d.field(1, false, "Locals") {
		return false
	}
	k.Params = exact(ps, n)
	n, ok = d.list(1, func(int) bool {
		k.Locals = append(k.Locals, LocalVar{})
		return d.local(&k.Locals[len(k.Locals)-1])
	})
	if n == 0 {
		k.Locals = []LocalVar{}
	}
	if !ok || !d.field(1, false, "SharedBytes") {
		return false
	}
	if k.SharedBytes, ok = d.int(); !ok || !d.field(1, false, "NumRegs") {
		return false
	}
	if k.NumRegs, ok = d.int(); !ok || !d.field(1, false, "Code") {
		return false
	}
	code := d.scratch.code[:0]
	n, ok = d.list(1, func(int) bool {
		code = append(code, Instr{})
		return d.instr(&code[len(code)-1])
	})
	d.scratch.code = code
	if !ok || !d.newline(0) || !d.byte('}') {
		return false
	}
	k.Code = exact(code, n)
	return true
}

func (d *kernelDecoder) param(p *ParamSpec) bool {
	if !d.byte('{') || !d.field(3, true, "Name") {
		return false
	}
	name, ok := d.str()
	if !ok || !d.field(3, false, "Kind") {
		return false
	}
	p.Name = string(name)
	switch {
	case d.lit(`"scalar"`):
		p.Kind = ParamScalar
	case d.lit(`"buffer"`):
		p.Kind = ParamBuffer
	default:
		return false
	}
	if !d.field(3, false, "ReadOnly") {
		return false
	}
	switch {
	case d.lit("true"):
		p.ReadOnly = true
	case !d.lit("false"):
		return false
	}
	return d.newline(2) && d.byte('}')
}

func (d *kernelDecoder) local(lv *LocalVar) bool {
	if !d.byte('{') || !d.field(3, true, "Name") {
		return false
	}
	name, ok := d.str()
	if !ok || !d.field(3, false, "Bytes") {
		return false
	}
	lv.Name = string(name)
	if lv.Bytes, ok = d.int(); !ok {
		return false
	}
	return d.newline(2) && d.byte('}')
}

// instr consumes one Code element, mirroring kernelEncoder.instr: the
// members after "op" appear only where Instr.MarshalJSON emits them, and
// never with the value it omits (a dst or pred of -1, a zero bytes or
// reconv, a false pneg or f32).
func (d *kernelDecoder) instr(in *Instr) bool {
	if !d.byte('{') || !d.field(3, true, "op") {
		return false
	}
	name, ok := d.str()
	if !ok {
		return false
	}
	op, ok := opByName[string(name)]
	if !ok {
		return false
	}
	*in = Instr{Op: op, Dst: -1, Pred: -1}
	if d.optional(3, "dst") {
		if in.Dst, ok = d.int(); !ok || in.Dst == -1 {
			return false
		}
	}
	if d.optional(3, "src") {
		n, ok := d.list(3, func(i int) bool { return i < len(in.Src) && d.operand(&in.Src[i]) })
		// The encoder omits an empty src and trims trailing null operands.
		if !ok || n < 1 || in.Src[n-1].Kind == OperandNone {
			return false
		}
	}
	if d.optional(3, "pred") {
		if in.Pred, ok = d.int(); !ok || in.Pred == -1 {
			return false
		}
	}
	if d.optional(3, "pneg") {
		if !d.lit("true") {
			return false
		}
		in.PNeg = true
	}
	if op.IsMemory() {
		if !d.field(3, false, "space") {
			return false
		}
		switch {
		case d.lit(`"global"`):
			in.Space = SpaceGlobal
		case d.lit(`"local"`):
			in.Space = SpaceLocal
		case d.lit(`"shared"`):
			in.Space = SpaceShared
		default:
			return false
		}
		if d.optional(3, "bytes") {
			if in.Bytes, ok = d.int(); !ok || in.Bytes == 0 {
				return false
			}
		}
		if d.optional(3, "f32") {
			if !d.lit("true") {
				return false
			}
			in.F32 = true
		}
	}
	if op.IsBranch() {
		if !d.field(3, false, "label") {
			return false
		}
		if in.Label, ok = d.int(); !ok {
			return false
		}
		if d.optional(3, "reconv") {
			if in.Reconv, ok = d.int(); !ok || in.Reconv == 0 {
				return false
			}
		}
	}
	return d.newline(2) && d.byte('}')
}

// operand consumes one src element, mirroring kernelEncoder.operand.
func (d *kernelDecoder) operand(o *Operand) bool {
	if d.lit("null") {
		return true
	}
	if !d.byte('{') || !d.newline(5) {
		return false
	}
	key, ok := d.str()
	if !ok || !d.lit(": ") {
		return false
	}
	switch string(key) {
	case "reg":
		o.Kind = OperandReg
		o.Reg, ok = d.int()
	case "imm":
		o.Kind = OperandImm
		o.Imm, ok = d.int64()
	case "spec":
		var name []byte
		if name, ok = d.str(); ok {
			o.Kind = OperandSpecial
			o.Special, ok = specialByName[string(name)]
		}
	case "param":
		o.Kind = OperandParam
		o.Param, ok = d.int()
	default:
		return false
	}
	return ok && d.newline(4) && d.byte('}')
}
