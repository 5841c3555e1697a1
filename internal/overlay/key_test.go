package overlay

import (
	"reflect"
	"strings"
	"testing"

	"mflow/internal/fault"
	"mflow/internal/obs"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// TestKeyFormat pins the encoding: sys and proto always, then only the
// non-zero fields, nested configs in braces.
func TestKeyFormat(t *testing.T) {
	for _, c := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{}, "sys=native|proto=TCP"},
		{
			Scenario{
				System: steering.MFlow, Proto: skb.UDP, MsgSize: 65536,
				MFlow:    MFlowConfig{SplitCores: 3, LateMerge: true},
				WireMode: true,
				Faults:   &fault.Plan{Wire: fault.Profile{Drop: 0.01, Burst: &fault.GilbertElliott{LossBad: 0.5}}},
				Seed:     42, Warmup: 3 * sim.Millisecond,
			},
			"sys=mflow|proto=UDP|msg=65536|mflow={splitcores=3,latemerge}|wire" +
				"|faults={wire={drop=0.01,burst={lossbad=0.5}}}|seed=42|warmup=3000000",
		},
	} {
		if got := c.sc.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}

// TestKeyCoversEveryConfigField is the encoder's completeness check. For
// every scalar field reachable from Scenario, through nested configs and
// pointers to them, setting a non-zero value must change the key. Obs is
// the exception: it is observation, and attaching it must not. A field
// added without encoder support fails here (or panics in keyValue) instead
// of silently aliasing distinct scenarios in the bench cache.
func TestKeyCoversEveryConfigField(t *testing.T) {
	root := reflect.TypeOf(Scenario{})
	var paths [][]int
	for i := 0; i < root.NumField(); i++ {
		if root.Field(i).Name == "Obs" {
			continue
		}
		paths = append(paths, leafPaths(root.Field(i).Type, []int{i})...)
	}
	if len(paths) < root.NumField() {
		t.Fatalf("only %d leaf fields found", len(paths))
	}
	for _, path := range paths {
		// base allocates the same pointers as mod, so the comparison
		// isolates the leaf (a present Costs table is written even when
		// zero).
		var base, mod Scenario
		fieldAt(reflect.ValueOf(&base).Elem(), path)
		leaf := fieldAt(reflect.ValueOf(&mod).Elem(), path)
		setNonZero(t, leaf)
		if base.Key() == mod.Key() {
			t.Errorf("%s: a non-zero value left the key unchanged: %s", pathName(root, path), base.Key())
		}
	}

	sc := Scenario{System: steering.MFlow, Seed: 7}
	watched := sc
	watched.Obs = obs.New()
	if sc.Key() != watched.Key() {
		t.Errorf("attaching Obs changed the key:\n  %s\n  %s", sc.Key(), watched.Key())
	}
}

// TestKeyPointerConfigs pins what nil means for the Costs and Faults
// pointers.
func TestKeyPointerConfigs(t *testing.T) {
	base := Scenario{System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536}
	with := func(f func(*Scenario)) string {
		sc := base
		f(&sc)
		return sc.Key()
	}
	nilKey := base.Key()

	// nil Costs means DefaultCosts, so any explicit table — even a zero
	// one — is a different configuration.
	if with(func(sc *Scenario) { sc.Costs = &CostModel{} }) == nilKey {
		t.Error("a zero cost table keys like nil Costs (DefaultCosts)")
	}
	// A zero Overload or Fabric config keys like nil too; the purity tests
	// (TestOverloadKeyAndFingerprintPure, TestFabricKeyPurity) pin that.

	// A plan that injects nothing can still tune recovery: the gap timer
	// and RTO are read on fabric and overload runs, so they are identity.
	for name, plan := range map[string]*fault.Plan{
		"gap-timeout": {GapTimeout: 100 * sim.Microsecond},
		"rto":         {RTO: sim.Millisecond},
	} {
		if plan.Enabled() {
			t.Fatalf("%s: plan unexpectedly enabled", name)
		}
		if k := with(func(sc *Scenario) { sc.Faults = plan }); k == nilKey || !strings.Contains(k, "faults={") {
			t.Errorf("%s: recovery-only fault plan keys like nil: %s", name, k)
		}
	}
}

// leafPaths lists the index path of every scalar field of t, descending
// into structs and pointers to structs.
func leafPaths(t reflect.Type, prefix []int) [][]int {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return [][]int{prefix}
	}
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		p := append(append([]int(nil), prefix...), i)
		out = append(out, leafPaths(t.Field(i).Type, p)...)
	}
	return out
}

// fieldAt returns the field at path inside v, allocating nil pointers on
// the way.
func fieldAt(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		v = v.Field(i)
	}
	return v
}

func setNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.String:
		v.SetString("x")
	default:
		t.Fatalf("no non-zero value for a %s field", v.Type())
	}
}

func pathName(t reflect.Type, path []int) string {
	var names []string
	for _, i := range path {
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		names = append(names, t.Field(i).Name)
		t = t.Field(i).Type
	}
	return strings.Join(names, ".")
}
