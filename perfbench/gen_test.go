package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
)

func testScenes(t *testing.T) []json.RawMessage {
	t.Helper()
	scenes, err := loadScenes("..")
	if err != nil {
		t.Fatal(err)
	}
	return scenes
}

// TestServeMixSeeded pins the generator's contract: the same seed gives an
// identical arrival and spec sequence, a different seed a different one.
func TestServeMixSeeded(t *testing.T) {
	scenes := testScenes(t)
	a := genServeMix(7, 20, scenes)
	b := genServeMix(7, 20, scenes)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different sequences")
	}
	c := genServeMix(8, 20, scenes)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 generated the same sequence")
	}
	if want := int(20 * mixRatePerS); len(a) != want {
		t.Fatalf("%d arrivals in 20 s, want %d", len(a), want)
	}
	kinds := map[string]int{}
	for _, x := range a {
		kinds[x.Kind]++
	}
	for _, k := range mixShares {
		if kinds[k.kind] == 0 {
			t.Errorf("no %s arrivals", k.kind)
		}
	}
}

// TestServeMixNewShare pins the load a run offers: every kind brings new
// specs, the only ones that solve, evenly at its new share, so seeds do not
// change how much solver work a run carries.
func TestServeMixNewShare(t *testing.T) {
	scenes := testScenes(t)
	for seed := uint64(1); seed <= 3; seed++ {
		count, distinct := map[string]int{}, map[string]map[string]bool{}
		for _, a := range genServeMix(seed, 30, scenes) {
			if distinct[a.Kind] == nil {
				distinct[a.Kind] = map[string]bool{}
			}
			count[a.Kind]++
			distinct[a.Kind][a.Key] = true
		}
		for _, ks := range mixShares {
			want := math.Floor(1 + float64(count[ks.kind])*ks.newShare)
			if got := float64(len(distinct[ks.kind])); math.Abs(got-want) > 1 {
				t.Errorf("seed %d: %d distinct %s specs in %d arrivals, want %v", seed, len(distinct[ks.kind]), ks.kind, count[ks.kind], want)
			}
		}
	}
}

// TestSolverConfigSeeded pins the solver workloads to their references: the
// same seed gives the same config, and every variant has a stored
// reference.
func TestSolverConfigSeeded(t *testing.T) {
	var refs references
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"oe-csp", "op-stream-4k"} {
		for seed := uint64(0); seed < 2*physicsVariants; seed++ {
			a, err := solverConfig(wl, seed)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := solverConfig(wl, seed); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: configs differ", wl, seed)
			}
			if _, ok := refs.Workloads[wl][strconv.FormatUint(a.Seed, 10)]; !ok {
				t.Errorf("%s seed %d: no reference for physics seed %d", wl, seed, a.Seed)
			}
		}
	}
}
