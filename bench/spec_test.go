package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is what later changes are judged against; these tests
// keep it and the driver saying the same thing.

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecNamesTheDriver(t *testing.T) {
	s := loadSpec(t)
	if len(s.Command) != 3 || s.Command[0] != "go" || s.Command[1] != "run" || s.Command[2] != "./bench" {
		t.Errorf("command = %v, want go run ./bench", s.Command)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", s.Paths)
	}
	if s.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, but the driver's default window is %d s", s.RunSeconds, defaultSeconds)
	}
}

func TestSpecWorkloadsMatchTheDriver(t *testing.T) {
	s := loadSpec(t)
	var refereed []workload
	for _, w := range workloads {
		if w.unrefereed == "" {
			refereed = append(refereed, w)
		}
	}
	if len(s.Workloads) != len(refereed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d refereed in the driver", len(s.Workloads), len(refereed))
	}
	for i, w := range refereed {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)",
				i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters (limit 200)", w.name, len(w.why))
		}
	}
}

func TestSpecMetricsMatchTheDriver(t *testing.T) {
	s := loadSpec(t)
	seen := map[string]bool{}
	check := func(section string, got []specMetric, want []struct{ name, unit, better string }, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the driver", section, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the driver %s %s %s",
					section, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !nameRE.MatchString(w.name) || !unitRE.MatchString(w.unit) || (w.better != "lower" && w.better != "higher") {
				t.Errorf("%s: %q (%q, %q) breaks the naming rules", section, w.name, w.unit, w.better)
			}
			if seen[w.name] {
				t.Errorf("%s: name %q used twice", section, w.name)
			}
			seen[w.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: %s needs a bound in (0, 0.25]", section, w.name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", section, w.name)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEndNames, true)
	check("per_layer", s.PerLayer, perLayerNames, false)
	if len(s.PerLayer) > 128 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(s.EndToEnd), len(s.PerLayer))
	}
	// setup_s must be there and must have the loosest bound.
	var setup, loosest float64
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			continue
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
		loosest = max(loosest, *m.Bound)
	}
	if setup == 0 || setup < loosest {
		t.Errorf("setup_s bound %v is not the largest (%v)", setup, loosest)
	}
}
