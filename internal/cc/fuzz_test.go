package cc

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestValidateFuzz is the registry-driven robustness sweep: for every
// registered algorithm, every numeric or string field reachable from its
// default parameter struct (recursively, through nested structs and
// slices) is overwritten in turn with adversarial values, and Validate
// must return — accept or reject — without panicking. The walk is pure
// reflection over fresh defaults per mutation, so it is deterministic
// and extends automatically to algorithms registered later.
func TestValidateFuzz(t *testing.T) {
	floatProbes := []float64{-1, 0, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, 1e-308}
	intProbes := []int64{-1, 0, math.MaxInt64, math.MinInt64}
	stringProbes := []string{"", "bogus", "\x00"}

	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			paths := fieldPaths(reflect.ValueOf(mustDefaults(t, name)).Elem(), nil)
			if len(paths) == 0 {
				t.Fatalf("no mutable fields found in %s defaults", name)
			}
			mutations := 0
			for _, path := range paths {
				var probes []any
				switch kindAt(t, name, path) {
				case reflect.Float64:
					for _, v := range floatProbes {
						probes = append(probes, v)
					}
				case reflect.Int, reflect.Int64:
					for _, v := range intProbes {
						probes = append(probes, v)
					}
				case reflect.String:
					for _, v := range stringProbes {
						probes = append(probes, v)
					}
				}
				for _, probe := range probes {
					p := mustDefaults(t, name)
					setAt(reflect.ValueOf(p).Elem(), path, probe)
					mutations++
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("Validate panicked with %s=%v: %v", pathString(path), probe, r)
							}
						}()
						_ = p.Validate() // accept or reject; never panic
					}()
				}
			}
			if mutations == 0 {
				t.Fatalf("no mutations generated for %s", name)
			}
		})
	}
}

// FuzzCCParamsJSON drives the -cc-params overlay with arbitrary bytes
// against every registered algorithm. ApplyParamsJSON must never panic;
// when it accepts the input, the result must validate and its
// ParamsJSON must re-apply onto fresh defaults to the same parameters.
func FuzzCCParamsJSON(f *testing.F) {
	names := Names()
	for i, name := range names {
		sel, err := Select(name, testLineRate)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), []byte(sel.ParamsJSON()))
		f.Add(uint8(i), []byte(`{} garbage {"nope": 1}`))
		if name == "policy" {
			f.Add(uint8(i), []byte(`{"rules": [{"signal": "cnp", "action": "scale", "arg": 0.5},
				{"signal": "rtt_us", "lo": 50, "action": "set_gbps", "arg": 10}]}`))
		}
	}
	f.Fuzz(func(t *testing.T, algo uint8, data []byte) {
		name := names[int(algo)%len(names)]
		sel, err := Select(name, testLineRate)
		if err != nil {
			t.Fatal(err)
		}
		if sel.ApplyParamsJSON(data) != nil {
			return
		}
		if err := sel.Params.Validate(); err != nil {
			t.Fatalf("%s accepted %q but its params do not validate: %v", name, data, err)
		}
		again, err := Select(name, testLineRate)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.ApplyParamsJSON(sel.ParamsJSON()); err != nil {
			t.Fatalf("%s: ParamsJSON after %q does not re-apply: %v", name, data, err)
		}
		if got, want := again.ParamsJSON(), sel.ParamsJSON(); !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip after %q gives %s, want %s", name, data, got, want)
		}
	})
}

func mustDefaults(t *testing.T, name string) Params {
	t.Helper()
	a, ok := Lookup(name)
	if !ok {
		t.Fatalf("algorithm %q vanished", name)
	}
	return a.Defaults(testLineRate)
}

// fieldPaths enumerates index paths to every settable leaf field of
// numeric or string kind, descending into structs and slice elements.
func fieldPaths(v reflect.Value, prefix []int) [][]int {
	var out [][]int
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanSet() {
				continue
			}
			out = append(out, fieldPaths(v.Field(i), append(append([]int(nil), prefix...), i))...)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = append(out, fieldPaths(v.Index(i), append(append([]int(nil), prefix...), i))...)
		}
	case reflect.Float64, reflect.Int, reflect.Int64, reflect.String:
		out = append(out, append([]int(nil), prefix...))
	}
	return out
}

// valueAt walks an index path produced by fieldPaths.
func valueAt(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		if v.Kind() == reflect.Slice {
			v = v.Index(i)
		} else {
			v = v.Field(i)
		}
	}
	return v
}

func kindAt(t *testing.T, name string, path []int) reflect.Kind {
	t.Helper()
	return valueAt(reflect.ValueOf(mustDefaults(t, name)).Elem(), path).Kind()
}

func setAt(root reflect.Value, path []int, probe any) {
	v := valueAt(root, path)
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(probe.(float64))
	case reflect.Int, reflect.Int64:
		v.SetInt(probe.(int64))
	case reflect.String:
		v.SetString(probe.(string))
	}
}

func pathString(path []int) string {
	return fmt.Sprint(path)
}
