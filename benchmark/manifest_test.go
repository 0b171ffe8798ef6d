package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesOutput keeps BENCHMARK.json and the program in step:
// the same workloads with the same reasons, and exactly the end-to-end and
// per-layer metrics, with the units, that a run prints.
func TestManifestMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest: %v", err)
	}
	type named struct{ Name, Unit, Why string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}

	// A pass that measured nothing still prints every metric.
	ps := &pass{w: workloads[0], setups: []setup{{}}}
	e2e, _ := ps.endToEnd()
	layer, err := ps.perLayer(e2e, e2e)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []named, got metricSet) {
		if len(want) != len(got) {
			t.Errorf("%s: manifest lists %d metrics, a run prints %d", kind, len(want), len(got))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not printed", kind, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s: %s printed in %s, manifest says %s", kind, m.Name, g.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2e)
	check("per_layer", doc.PerLayer, layer)
	for i, name := range endToEndNames {
		if i >= len(doc.EndToEnd) || doc.EndToEnd[i].Name != name {
			t.Errorf("end-to-end metric %d is %s in the program", i, name)
		}
	}
}
