package service

import (
	"encoding/base64"
	"math"
	"strconv"
	"sync"
)

// The canonical fast paths of the launch and read-back endpoints. Clients
// that build bodies with json.Marshal (gsbench, cmd/loadgen) send exactly
// one byte sequence per value: compact, members in declaration order (map
// keys sorted), omitempty members left out, strings with nothing to escape
// copied verbatim, integers as strconv writes them. wireDecoder reads that
// sequence and gives up at the first byte it does not expect; the handler
// then hands the same bytes to encoding/json, which stays the reference, so
// every 400 text still comes from encoding/json. The encoders append what
// json.NewEncoder(w).Encode writes, and leave any value they cannot
// reproduce byte for byte to encoding/json.

// bodyPool holds the buffers request bodies are read into and response
// bodies are appended to.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readRequest is the body of a read-back request.
type readRequest struct {
	Offset uint64 `json:"offset"`
	N      int    `json:"n"`
}

// readBack is the body of a read-back response.
type readBack struct {
	Data []byte `json:"data"` // JSON base64
}

// verbatim reports whether encoding/json writes c inside a string as is:
// printable ASCII other than '"', '\\' and the HTML characters it escapes.
func verbatim(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func verbatimString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !verbatim(s[i]) {
			return false
		}
	}
	return true
}

// decimal reports whether encoding/json writes f in strconv's shortest 'f'
// form: zero or a magnitude in [1e-6, 1e21). Other finite values get an
// exponent form, and NaN and the infinities an error.
func decimal(f float64) bool {
	a := math.Abs(f)
	return a == 0 || a >= 1e-6 && a < 1e21
}

// appendLaunchResult appends the body json.NewEncoder(w).Encode(r) writes,
// trailing newline included. It reports false, having appended nothing, when
// a string of r needs escaping or a float an exponent.
func appendLaunchResult(b []byte, r *LaunchResult) ([]byte, bool) {
	if !verbatimString(r.Kernel) || !verbatimString(r.AbortMsg) || !decimal(r.QueueMS) || !decimal(r.RunMS) {
		return b, false
	}
	for _, v := range r.ViolationLog {
		if !verbatimString(v) {
			return b, false
		}
	}
	b = append(b, `{"kernel":"`...)
	b = append(b, r.Kernel...)
	b = append(b, `","cycles":`...)
	b = strconv.AppendUint(b, r.Cycles, 10)
	b = append(b, `,"warp_instrs":`...)
	b = strconv.AppendUint(b, r.WarpInstrs, 10)
	b = append(b, `,"mem_instrs":`...)
	b = strconv.AppendUint(b, r.MemInstrs, 10)
	b = append(b, `,"checks":`...)
	b = strconv.AppendUint(b, r.Checks, 10)
	b = append(b, `,"violations":`...)
	b = strconv.AppendInt(b, int64(r.Violations), 10)
	if len(r.ViolationLog) > 0 {
		b = append(b, `,"violation_log":[`...)
		for i, v := range r.ViolationLog {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, v...)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	b = append(b, `,"cross_tenant_blocked":`...)
	b = strconv.AppendInt(b, int64(r.CrossTenant), 10)
	if r.Watchdog {
		b = append(b, `,"watchdog":true`...)
	}
	if r.Aborted {
		b = append(b, `,"aborted":true`...)
	}
	if r.AbortMsg != "" {
		b = append(b, `,"abort_msg":"`...)
		b = append(b, r.AbortMsg...)
		b = append(b, '"')
	}
	b = append(b, `,"cycles_left":`...)
	b = strconv.AppendUint(b, r.CyclesLeft, 10)
	b = append(b, `,"queue_ms":`...)
	b = strconv.AppendFloat(b, r.QueueMS, 'f', -1, 64)
	b = append(b, `,"run_ms":`...)
	b = strconv.AppendFloat(b, r.RunMS, 'f', -1, 64)
	return append(b, "}\n"...), true
}

// appendReadBack appends the body json.NewEncoder(w).Encode writes for
// readBack{data}.
func appendReadBack(b, data []byte) []byte {
	if data == nil {
		return append(b, "{\"data\":null}\n"...)
	}
	b = append(b, `{"data":"`...)
	b = base64.StdEncoding.AppendEncode(b, data)
	return append(b, "\"}\n"...)
}

// decodeLaunchSpec decodes data into spec if it is byte for byte what
// json.Marshal writes for some LaunchSpec, and reports false, leaving spec
// alone, otherwise.
func decodeLaunchSpec(data []byte, spec *LaunchSpec) bool {
	d := wireDecoder{data: data}
	if !d.lit(`{"kernel":`) {
		return false
	}
	kernel, ok := d.str()
	if !ok || !d.lit(`,"grid":`) {
		return false
	}
	grid, ok := d.int()
	if !ok || !d.lit(`,"block":`) {
		return false
	}
	block, ok := d.int()
	if !ok || !d.lit(`,"args":`) {
		return false
	}
	args, ok := d.args()
	if !ok {
		return false
	}
	var deadline int64
	if d.lit(`,"deadline_ms":`) {
		if deadline, ok = d.int64(); !ok || deadline == 0 {
			return false
		}
	}
	if !d.lit("}") || d.pos != len(data) {
		return false
	}
	*spec = LaunchSpec{Kernel: kernel, Grid: grid, Block: block, Args: args, DeadlineMS: deadline}
	return true
}

// decodeReadRequest decodes data into req if it is byte for byte what
// json.Marshal(map[string]any{"n": n, "offset": offset}) writes, the form
// gsbench and cmd/loadgen send, and reports false otherwise.
func decodeReadRequest(data []byte, req *readRequest) bool {
	d := wireDecoder{data: data}
	if !d.lit(`{"n":`) {
		return false
	}
	n, ok := d.int()
	if !ok || !d.lit(`,"offset":`) {
		return false
	}
	offset, ok := d.uint64()
	if !ok || !d.lit("}") || d.pos != len(data) {
		return false
	}
	*req = readRequest{Offset: offset, N: n}
	return true
}

// wireDecoder consumes compact JSON from pos. Each method reports false at
// the first byte that json.Marshal would not have written there.
type wireDecoder struct {
	data []byte
	pos  int
}

// lit consumes s.
func (d *wireDecoder) lit(s string) bool {
	end := d.pos + len(s)
	if end > len(d.data) || string(d.data[d.pos:end]) != s {
		return false
	}
	d.pos = end
	return true
}

// str consumes a string that json.Marshal copies verbatim and returns a
// copy of it.
func (d *wireDecoder) str() (string, bool) {
	if !d.lit(`"`) {
		return "", false
	}
	for p := d.pos; p < len(d.data); p++ {
		switch c := d.data[p]; {
		case c == '"':
			s := string(d.data[d.pos:p])
			d.pos = p + 1
			return s, true
		case !verbatim(c):
			return "", false
		}
	}
	return "", false
}

// uint64 consumes an integer as strconv.AppendUint writes it: 0, or digits
// without a leading zero, in range.
func (d *wireDecoder) uint64() (uint64, bool) {
	start := d.pos
	var u uint64
	for ; d.pos < len(d.data) && d.data[d.pos]-'0' <= 9; d.pos++ {
		c := uint64(d.data[d.pos] - '0')
		if u > (math.MaxUint64-c)/10 {
			return 0, false
		}
		u = u*10 + c
	}
	n := d.pos - start
	return u, n == 1 || n > 1 && d.data[start] != '0'
}

// int64 consumes an integer as strconv.AppendInt writes it: an optional
// minus sign before a uint64 form, never -0, in range.
func (d *wireDecoder) int64() (int64, bool) {
	neg := d.lit("-")
	u, ok := d.uint64()
	switch {
	case !ok:
		return 0, false
	case neg:
		return -int64(u), u != 0 && u <= 1<<63
	}
	return int64(u), u < 1<<63
}

// int consumes an integer that fits in an int.
func (d *wireDecoder) int() (int, bool) {
	v, ok := d.int64()
	return int(v), ok && int64(int(v)) == v
}

// args consumes the args member's value: null, [] or the elements. Each
// element is {} or has the members json.Marshal writes for a non-empty
// buffer name and a non-nil scalar, in that order.
func (d *wireDecoder) args() ([]ArgSpec, bool) {
	switch {
	case d.lit("null"):
		return nil, true
	case d.lit("[]"):
		return []ArgSpec{}, true
	case !d.lit("["):
		return nil, false
	}
	var scratch [8]ArgSpec
	args := scratch[:0]
	for len(args) == 0 || d.lit(",") {
		var a ArgSpec
		if !d.lit("{") {
			return nil, false
		}
		scalar := `"scalar":`
		if d.lit(`"buffer":`) {
			name, ok := d.str()
			if !ok || name == "" {
				return nil, false
			}
			a.Buffer, scalar = name, `,"scalar":`
		}
		if d.lit(scalar) {
			v, ok := d.int64()
			if !ok {
				return nil, false
			}
			a.Scalar = &v
		}
		if !d.lit("}") {
			return nil, false
		}
		args = append(args, a)
	}
	if !d.lit("]") {
		return nil, false
	}
	return append(make([]ArgSpec, 0, len(args)), args...), true
}
