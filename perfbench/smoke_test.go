package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the command against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, against a
// freshly built memgazed and checks that the result line carries
// exactly the metrics BENCHMARK.json names, with their units, and that
// every output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds memgazed and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "memgazed")
	build := exec.Command("go", "build", "-o", bin, "github.com/memgaze/memgaze-go/cmd/memgazed")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building memgazed: %v\n%s", err, out)
	}

	for _, w := range spec.Workloads {
		wl, err := lookupWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wl.why != w.Why {
			t.Errorf("%s: why differs from BENCHMARK.json:\n  %s\n  %s", w.Name, wl.why, w.Why)
		}
		for _, traced := range []string{"0", "1"} {
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced == "1" {
				want = map[string]string{}
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", traced,
				"-memgazed", bin, "-work", filepath.Join(dir, "work")}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%s: metric %s in %s, BENCHMARK.json says %s", w.Name, traced, name, m.Unit, unit)
				case traced == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, c := range []string{"upload_ids", "stable_answers", "engine_reference", "raw_hashes"} {
				if !strings.Contains(out.String(), "# check "+c) {
					t.Errorf("%s trace=%s: check %s not reported", w.Name, traced, c)
				}
			}
		}
	}
}
