package kernel_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gpushield/internal/kernel"
	"gpushield/internal/kernelfuzz"
)

// checkEqual requires kernel.Equal to agree with reflect.DeepEqual on a and
// b, in both orders.
func checkEqual(t *testing.T, label string, a, b *kernel.Kernel) {
	t.Helper()
	want := reflect.DeepEqual(a, b)
	if got := kernel.Equal(a, b); got != want {
		t.Fatalf("%s: Equal = %v, reflect.DeepEqual = %v", label, got, want)
	}
	if got := kernel.Equal(b, a); got != want {
		t.Fatalf("%s (swapped): Equal = %v, reflect.DeepEqual = %v", label, got, want)
	}
}

// cloneKernel copies k and its slices, keeping nil slices nil and empty
// ones empty.
func cloneKernel(k *kernel.Kernel) *kernel.Kernel {
	c := *k
	c.Params, c.Locals, c.Code = slices.Clone(k.Params), slices.Clone(k.Locals), slices.Clone(k.Code)
	return &c
}

// walkFields calls visit on every field under v, found by reflection:
// struct fields, array elements (each Src slot of an instruction), slices
// and their elements, and the strings, integers and bools at the leaves.
func walkFields(v reflect.Value, visit func(reflect.Value)) {
	visit(v)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkFields(v.Field(i), visit)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkFields(v.Index(i), visit)
		}
	}
}

// perturb changes v alone and reports whether it could: a leaf gets a
// different value, a slice swaps nil and empty or loses its last element.
// A field of a kind it does not know fails the test, so a field added to
// the kernel types later is either perturbed or noticed.
func perturb(t *testing.T, v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() ^ 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() ^ 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		switch {
		case v.IsNil():
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		case v.Len() == 0:
			v.Set(reflect.Zero(v.Type()))
		default:
			v.SetLen(v.Len() - 1)
		}
	case reflect.Struct, reflect.Array:
		return false
	default:
		t.Fatalf("perturb: field kind %s not handled", v.Kind())
	}
	return true
}

// checkPerturbations changes every field of a copy of k in turn, alone,
// compares the copy with k and restores the field.
func checkPerturbations(t *testing.T, label string, k *kernel.Kernel) int {
	t.Helper()
	c := cloneKernel(k)
	changed := 0
	walkFields(reflect.ValueOf(c).Elem(), func(v reflect.Value) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		if perturb(t, v) {
			if want := reflect.DeepEqual(k, c); kernel.Equal(k, c) != want || kernel.Equal(c, k) != want {
				checkEqual(t, fmt.Sprintf("%s with %s field %d changed", label, v.Type(), changed), k, c)
			}
			changed++
			v.Set(old)
		}
	})
	return changed
}

// equalKernels returns every kernel of 1,200 generated cases, the edge-case
// kernels and the bug corpus.
func equalKernels(t *testing.T) map[string]*kernel.Kernel {
	all := edgeKernels()
	for _, seed := range []int64{1, 7, 12345} {
		for i := 0; i < 400; i++ {
			c := kernelfuzz.Generate(seed, i)
			if c.Malformed != nil {
				all[fmt.Sprintf("seed %d case %d", seed, i)] = c.Malformed.Kernel
				continue
			}
			kernels, err := kernelfuzz.BuildKernels(c)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, i, err)
			}
			for li, k := range kernels {
				all[fmt.Sprintf("seed %d case %d launch %d", seed, i, li)] = k
			}
		}
	}
	entries, err := kernelfuzz.LoadDir("../../testdata/bugcorpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for li, l := range e.Launches {
			var k kernel.Kernel
			if err := json.Unmarshal(l.Kernel, &k); err != nil {
				t.Fatalf("%s launch %d: %v", e.Name, li, err)
			}
			all[fmt.Sprintf("%s launch %d", e.Name, li)] = &k
		}
	}
	return all
}

// TestEqualMatchesDeepEqual holds kernel.Equal to reflect.DeepEqual: on each
// kernel against itself, a copy and its JSON round trip, and against the
// kernel before it; and on copies with any one field changed, of every
// edge-case and corpus kernel and of every fourth generated one (the
// generated kernels repeat a few shapes, and reflect.DeepEqual is slow
// under the race detector).
func TestEqualMatchesDeepEqual(t *testing.T) {
	all := equalKernels(t)
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	slices.Sort(names)
	checkEqual(t, "nil kernels", nil, nil)
	fields := 0
	var prev *kernel.Kernel
	for i, name := range names {
		k := all[name]
		checkEqual(t, name+" itself", k, k)
		checkEqual(t, name+" copy", k, cloneKernel(k))
		checkEqual(t, name+" against nil", k, nil)
		if enc, err := k.EncodeJSON(); err == nil {
			var back kernel.Kernel
			if json.Unmarshal(enc, &back) == nil {
				checkEqual(t, name+" round trip", k, &back)
			}
		}
		if prev != nil {
			checkEqual(t, name+" against the previous kernel", k, prev)
		}
		prev = k
		if !strings.HasPrefix(name, "seed ") || i%4 == 0 {
			fields += checkPerturbations(t, name, k)
		}
	}
	t.Logf("%d kernels, %d single-field changes", len(all), fields)
}
