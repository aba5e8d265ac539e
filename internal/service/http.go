package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"slices"
	"time"
)

// maxBodyBytes bounds every request body the handler will read. Buffer
// payloads ride inside JSON as base64, so the cap must clear the byte budget
// with base64 + framing overhead to spare.
const maxBodyBytes = 8 << 20

// fastBodyMax bounds the bodies read whole for a canonical fast path
// (codec.go); larger ones, and bodies of unknown length, stream through
// encoding/json.
const fastBodyMax = 64 << 10

// errorBody is the wire envelope for every non-2xx response. Result is
// populated when a launch aborted with a usable partial report (deadline or
// hard-stop mid-run), so clients can see what their kernel did before dying.
type errorBody struct {
	Error        string        `json:"error"`
	Status       int           `json:"status"`
	RetryAfterMS int64         `json:"retry_after_ms,omitempty"`
	Result       *LaunchResult `json:"result,omitempty"`
}

// NewHandler wires the Server into an http.Handler. Routes:
//
//	POST   /v1/sessions                          create a session
//	GET    /v1/sessions                          per-session telemetry
//	DELETE /v1/sessions/{id}                     close a session
//	POST   /v1/sessions/{id}/buffers             allocate a buffer
//	POST   /v1/sessions/{id}/buffers/{name}/write  H2D copy (base64 data)
//	POST   /v1/sessions/{id}/buffers/{name}/read   D2H copy (base64 data)
//	POST   /v1/sessions/{id}/launch              run a kernel template
//	GET    /v1/kernels                           catalog names
//	GET    /v1/stats                             server counters
//	GET    /healthz                              200 serving / 503 draining
//
// Every handler runs inside a per-request panic guard: a panic is logged with
// its stack and answered with a 500, and the daemon keeps serving.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Tenant string `json:"tenant"`
		}
		if !decodeJSON(w, r, &req, nil) {
			return
		}
		info, err := s.CreateSession(req.Tenant)
		if err != nil {
			writeError(w, err, nil)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Sessions())
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CloseSession(r.PathValue("id")); err != nil {
			writeError(w, err, nil)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/buffers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name     string `json:"name"`
			Size     uint64 `json:"size"`
			ReadOnly bool   `json:"read_only"`
		}
		if !decodeJSON(w, r, &req, nil) {
			return
		}
		info, err := s.Malloc(r.PathValue("id"), req.Name, req.Size, req.ReadOnly)
		if err != nil {
			writeError(w, err, nil)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/buffers/{name}/write", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Offset uint64 `json:"offset"`
			Data   []byte `json:"data"` // JSON base64
		}
		if !decodeJSON(w, r, &req, nil) {
			return
		}
		if err := s.WriteBuffer(r.PathValue("id"), r.PathValue("name"), req.Offset, req.Data); err != nil {
			writeError(w, err, nil)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/buffers/{name}/read", func(w http.ResponseWriter, r *http.Request) {
		var req readRequest
		if !decodeJSON(w, r, &req, func(b []byte) bool { return decodeReadRequest(b, &req) }) {
			return
		}
		data, err := s.ReadBuffer(r.PathValue("id"), r.PathValue("name"), req.Offset, req.N)
		if err != nil {
			writeError(w, err, nil)
			return
		}
		writeAppended(w, readBack{data}, func(b []byte) ([]byte, bool) { return appendReadBack(b, data), true })
	})

	mux.HandleFunc("POST /v1/sessions/{id}/launch", func(w http.ResponseWriter, r *http.Request) {
		var spec LaunchSpec
		if !decodeJSON(w, r, &spec, func(b []byte) bool { return decodeLaunchSpec(b, &spec) }) {
			return
		}
		// r.Context() carries the client disconnect: a vanished caller
		// cancels its own queued/running launch and nobody else's.
		res, err := s.Launch(r.Context(), r.PathValue("id"), spec)
		if err != nil {
			writeError(w, err, res)
			return
		}
		writeAppended(w, res, func(b []byte) ([]byte, bool) { return appendLaunchResult(b, res) })
	})

	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Kernels []string `json:"kernels"`
		}{KernelNames()})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			writeError(w, ErrDraining, nil)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})

	return recoverMiddleware(mux)
}

// recoverMiddleware contains handler panics to the request that caused them:
// log with stack, answer 500, keep the daemon up. (Simulation panics never
// reach here — the launch path converts those to pool.ErrRunPanic — this
// guard is for the HTTP layer itself.)
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeJSON(w, http.StatusInternalServerError, errorBody{
					Error:  fmt.Sprintf("internal error: %v", v),
					Status: http.StatusInternalServerError,
				})
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		next.ServeHTTP(w, r)
	})
}

// decodeJSON parses the body into v; on failure it answers 400 (or 413 for an
// oversized body) and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, fast func([]byte) bool) bool {
	if err := decodeBody(r, v, fast); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error:  fmt.Sprintf("request body over the %d-byte cap", tooBig.Limit),
				Status: http.StatusRequestEntityTooLarge,
			})
			return false
		}
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err), nil)
		return false
	}
	return true
}

// writeError maps a Server error chain to its status code, attaches the
// Retry-After header (whole seconds, rounded up, per RFC 9110) when the error
// carries a hint, and ships the partial launch report when there is one.
func writeError(w http.ResponseWriter, err error, partial *LaunchResult) {
	status := HTTPStatus(err)
	body := errorBody{Error: err.Error(), Status: status, Result: partial}
	if ra := RetryAfter(err); ra > 0 {
		body.RetryAfterMS = ra.Milliseconds()
		secs := int64((ra + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, body)
}

// decodeBody decodes the request body into v with encoding/json. When fast is
// not nil and the body's length is known and at most fastBodyMax, the body
// is first read whole into a pooled buffer and fast tries to decode it in
// json.Marshal's compact form; encoding/json gets the same bytes whenever
// fast reports false.
func decodeBody(r *http.Request, v any, fast func([]byte) bool) error {
	var body io.Reader = r.Body
	if n := r.ContentLength; fast != nil && n >= 0 && n <= fastBodyMax {
		bp := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(bp)
		b := slices.Grow((*bp)[:0], int(n))[:n]
		*bp = b
		got, err := io.ReadFull(r.Body, b)
		if err == nil && fast(b) {
			return nil
		}
		body = io.MultiReader(bytes.NewReader(b[:got]), r.Body)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeAppended answers 200 with the body appendBody appends to a pooled
// buffer. When appendBody reports false it cannot reproduce encoding/json's
// bytes for v, and v goes through writeJSON instead.
func writeAppended(w http.ResponseWriter, v any, appendBody func([]byte) ([]byte, bool)) {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	b, ok := appendBody((*bp)[:0])
	*bp = b
	if !ok {
		writeJSON(w, http.StatusOK, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b); err != nil {
		log.Printf("writing response: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; all we can do is note it.
		log.Printf("writing response: %v", err)
	}
}
