package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// referenceBody is what json.NewEncoder(w).Encode(v) writes.
func referenceBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// checkLaunchResultBody requires the fast encoder to write r exactly as
// encoding/json does, or to report that it cannot (want false), having
// appended nothing.
func checkLaunchResultBody(t *testing.T, r *LaunchResult, want bool) {
	t.Helper()
	got, ok := appendLaunchResult([]byte("prefix"), r)
	if ok != want {
		t.Fatalf("fast encoder ok=%v, want %v, for %+v", ok, want, r)
	}
	if !ok {
		if string(got) != "prefix" {
			t.Fatalf("fast encoder appended %q and then gave up", got[len("prefix"):])
		}
		return
	}
	if ref := referenceBody(t, r); !bytes.Equal(got[len("prefix"):], ref) {
		t.Fatalf("fast body differs from encoding/json's:\n got %s\nwant %s", got[len("prefix"):], ref)
	}
}

func TestLaunchResultBodyMatchesEncodingJSON(t *testing.T) {
	log := []string{
		"oob store kernel=3 buffer=1 pc=@7 range=[0x1000,0x10fc]",
		"oob load kernel=3 buffer=2 pc=@9 range=[0x2000,0x2004]",
		"", "x",
	}
	// Every omitempty combination with 0-4 violation-log entries, at the
	// float values encoding/json writes in plain decimal.
	for mask := 0; mask < 8; mask++ {
		for n := 0; n <= len(log); n++ {
			for _, f := range []float64{0, 0.001, 123.456} {
				r := &LaunchResult{
					Kernel: "vecadd", Cycles: 1234, WarpInstrs: 56, MemInstrs: 7, Checks: 3,
					Violations: n, CrossTenant: n / 2, CyclesLeft: 1 << 40, QueueMS: f, RunMS: 2 * f,
					Watchdog: mask&1 != 0, Aborted: mask&2 != 0,
				}
				if mask&4 != 0 {
					r.AbortMsg = "watchdog: MaxCycles=262144 exceeded"
				}
				if n > 0 {
					r.ViolationLog = log[:n]
				}
				checkLaunchResultBody(t, r, true)
			}
		}
	}
	// An empty, non-nil log is omitted like a nil one.
	checkLaunchResultBody(t, &LaunchResult{Kernel: "fill", ViolationLog: []string{}}, true)

	// Floats encoding/json writes with an exponent, and strings it escapes,
	// must fall back.
	for _, f := range []float64{1e-7, 1e21, -1e-7} {
		checkLaunchResultBody(t, &LaunchResult{Kernel: "fill", QueueMS: f}, false)
		checkLaunchResultBody(t, &LaunchResult{Kernel: "fill", RunMS: f}, false)
	}
	for _, s := range []string{`"`, `\`, "<", ">", "&", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\xff"} {
		checkLaunchResultBody(t, &LaunchResult{Kernel: "a" + s}, false)
		checkLaunchResultBody(t, &LaunchResult{Kernel: "fill", AbortMsg: s + "b"}, false)
		checkLaunchResultBody(t, &LaunchResult{Kernel: "fill", ViolationLog: []string{"ok", s}}, false)
	}

	// Random results: whatever the fast encoder accepts must match.
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for i := 0; i < 2000; i++ {
		r := randomLaunchResult(rng)
		got, ok := appendLaunchResult(nil, r)
		if !ok {
			continue
		}
		accepted++
		if ref := referenceBody(t, r); !bytes.Equal(got, ref) {
			t.Fatalf("random result %+v:\n got %s\nwant %s", r, got, ref)
		}
	}
	if accepted < 500 {
		t.Fatalf("fast encoder accepted only %d of 2000 random results", accepted)
	}
}

func randomLaunchResult(rng *rand.Rand) *LaunchResult {
	str := func() string {
		const alphabet = "abcxyz019 -=:@[],.\"\\<>&\x01\x7f\u2028é"
		b := make([]byte, rng.Intn(6))
		for i := range b {
			if rng.Intn(8) == 0 {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			} else {
				b[i] = byte('a' + rng.Intn(26))
			}
		}
		return string(b)
	}
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(1e6)) / 1000
		case 2:
			return rng.ExpFloat64() * 1e-5
		}
		return rng.NormFloat64() * 1e20
	}
	r := &LaunchResult{
		Kernel: str(), Cycles: rng.Uint64(), WarpInstrs: rng.Uint64() >> rng.Intn(64),
		MemInstrs: uint64(rng.Intn(100)), Checks: uint64(rng.Intn(100)), Violations: rng.Intn(9) - 4,
		CrossTenant: rng.Intn(3), Watchdog: rng.Intn(2) == 0, Aborted: rng.Intn(2) == 0,
		CyclesLeft: rng.Uint64(), QueueMS: num(), RunMS: num(),
	}
	if rng.Intn(2) == 0 {
		r.AbortMsg = str()
	}
	for n := rng.Intn(5); n > 0; n-- {
		r.ViolationLog = append(r.ViolationLog, str())
	}
	return r
}

func TestReadBackBodyMatchesEncodingJSON(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {0xA5}, sentinel(4096)} {
		got := appendReadBack([]byte("prefix"), data)
		if ref := referenceBody(t, readBack{data}); !bytes.Equal(got[len("prefix"):], ref) {
			t.Fatalf("read-back of %d bytes (nil %v):\n got %.80s\nwant %.80s", len(data), data == nil, got[len("prefix"):], ref)
		}
	}
}

// TestClientBodiesTakeFastPath pins that the bodies gsbench and cmd/loadgen
// send, which json.Marshal writes, decode without encoding/json.
func TestClientBodiesTakeFastPath(t *testing.T) {
	specs := []LaunchSpec{
		{Kernel: "vecadd", Grid: 4, Block: 256, Args: []ArgSpec{Buf("x"), Buf("y"), Buf("z"), Scalar(1024)}},
		{Kernel: "fill", Grid: 8, Block: 256, Args: []ArgSpec{Buf("a"), Scalar(1 << 20)}},
		{Kernel: "oob-store", Grid: 1, Block: 32, Args: []ArgSpec{Buf("a"), Scalar(-5)}},
		{Kernel: "spin", Grid: 2, Block: 128, Args: []ArgSpec{Buf("a"), Scalar(0)}, DeadlineMS: 50},
		{Kernel: "fill", Args: []ArgSpec{{}, {Buffer: "b", Scalar: new(int64)}}, DeadlineMS: -1},
		{Kernel: "", Args: []ArgSpec{}},
		{Kernel: "nil-args"},
	}
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got LaunchSpec
		if !decodeLaunchSpec(body, &got) {
			t.Fatalf("canonical launch body missed the fast path: %s", body)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Fatalf("fast path decoded %s as %+v, want %+v", body, got, spec)
		}
	}
	for _, n := range []int{1024, 4096, 0, -1} {
		body, _ := json.Marshal(map[string]any{"offset": 0, "n": n})
		var got readRequest
		if !decodeReadRequest(body, &got) || got != (readRequest{N: n}) {
			t.Fatalf("canonical read body %s: fast path gave %+v", body, got)
		}
	}
}

// decodeLikeReference requires the handler's decodeBody to give the same
// value, or the same error text, as encoding/json's decoder on body, both
// when the body's length is known and when it streams, and whatever the
// fast path accepts to be the canonical encoding of what it decoded.
func decodeLikeReference[T any](t *testing.T, body []byte, fast func([]byte, *T) bool, canonical func(*T) ([]byte, error)) {
	t.Helper()
	var want T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)

	for _, known := range []bool{true, false} {
		r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
		if !known {
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), -1
		}
		var got T
		err := decodeBody(r, &got, func(b []byte) bool { return fast(b, &got) })
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("body %q (known length %v): error %v, encoding/json's %v", body, known, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("body %q (known length %v): error %q, encoding/json's %q", body, known, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("body %q (known length %v): decoded %#v, encoding/json %#v", body, known, got, want)
		}
	}

	var v T
	if !fast(body, &v) {
		return
	}
	if re, err := canonical(&v); err != nil || !bytes.Equal(re, body) {
		t.Fatalf("fast path accepted a non-canonical body:\n body %s\n json %s (%v)", body, re, err)
	}
}

func checkServiceRequest(t *testing.T, body []byte) {
	decodeLikeReference(t, body, decodeLaunchSpec, func(s *LaunchSpec) ([]byte, error) { return json.Marshal(s) })
	decodeLikeReference(t, body, decodeReadRequest, func(r *readRequest) ([]byte, error) {
		return json.Marshal(map[string]any{"n": r.N, "offset": r.Offset})
	})
}

// serviceRequestSeeds are the fuzz seeds: the clients' bodies and the ways a
// body can leave json.Marshal's form.
func serviceRequestSeeds() []string {
	return []string{
		`{"kernel":"vecadd","grid":1,"block":256,"args":[{"buffer":"x"},{"buffer":"y"},{"buffer":"z"},{"scalar":256}]}`,
		`{"kernel":"fill","grid":8,"block":256,"args":[{"buffer":"a"},{"scalar":1048576}]}`,
		`{"kernel":"oob-store","grid":1,"block":32,"args":[{"buffer":"a"},{"scalar":262400}]}`,
		`{"kernel":"spin","grid":2,"block":128,"args":[{"buffer":"a"},{"scalar":-7}],"deadline_ms":50}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[{},{"buffer":"b","scalar":0}]}`,
		`{"kernel":"fill","grid":1,"block":1,"args":null}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[{"scalar":null}]}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[{"buffer":""}]}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[],"deadline_ms":0}`,
		`{"grid":1,"kernel":"fill","block":1,"args":[]}`,
		`{"kernel": "fill","grid":1,"block":1,"args":[]}`,
		` {"kernel":"fill","grid":1,"block":1,"args":[]}`,
		`{"Kernel":"fill","grid":1,"block":1,"args":[]}`,
		`{"kernel":"fill","kernel":"copy","grid":1,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[],"extra":1}`,
		`{"kernel":"f\u0069ll","grid":1,"block":1,"args":[]}`,
		`{"kernel":"a\"b","grid":1,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":1e2,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":01,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":-0,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":1.0,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":12345678901234567890,"block":1,"args":[]}`,
		`{"kernel":"fill","grid":9223372036854775807,"block":-9223372036854775808,"args":[{"scalar":-9223372036854775808}]}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[{"scalar":9223372036854775808}]}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[]}garbage`,
		`{"kernel":"fill","grid":1,"block":1,"args":[]} `,
		`{"kernel":"fill","grid":1,"block":1,"args":[]}{}`,
		`{"kernel":"fill","grid":1,"block":1,"args":[{"buffer":"a"},{"scal`,
		`{"kernel":"fill","grid":1,"block":1,"ar`,
		`{"n":1024,"offset":0}`,
		`{"n":4096,"offset":0}`,
		`{"n":-1,"offset":18446744073709551615}`,
		`{"n":1,"offset":18446744073709551616}`,
		`{"n":1,"offset":-1}`,
		`{"offset":0,"n":1024}`,
		`{"n":1024,"offset":0,"n":8}`,
		`{"N":1024,"offset":0}`,
		`{"n":01,"offset":0}`,
		`{"n":-0,"offset":0}`,
		`{"n":1e2,"offset":0}`,
		`{"n":1024,"offset":0}trailing`,
		`{"n":1024,"off`,
		`{"n":1024}`,
		`{}`,
		`null`,
		`[]`,
		``,
	}
}

// TestOversizedBodyStreams: a body over fastBodyMax streams through
// encoding/json and must still decode like the reference.
func TestOversizedBodyStreams(t *testing.T) {
	checkServiceRequest(t, []byte(fmt.Sprintf(`{"kernel":"%s","grid":1,"block":1,"args":[]}`, strings.Repeat("k", fastBodyMax))))
}

func FuzzServiceRequest(f *testing.F) {
	for _, s := range serviceRequestSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkServiceRequest(t, body)
	})
}
