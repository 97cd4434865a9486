package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload at tiny size: untraced twice (the
// simulated fingerprint must repeat) and traced once (the traced phase
// must leave the untraced fingerprint, and every metric must be there).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three simulated stacks")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: 1, ops: 3000, tiny: true, out: t.TempDir()}
			a, err := runPlain(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPlain(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.inst.fp != b.inst.fp {
				t.Errorf("fingerprint differs between identical runs: %s, %s", a.inst.fp, b.inst.fp)
			}
			tr, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.inst.fp != a.inst.fp {
				t.Errorf("traced fingerprint %s, untraced %s", tr.inst.fp, a.inst.fp)
			}
			for _, r := range []*report{a, tr} {
				if !r.correct || r.failed != 0 || r.attempted < cfg.ops {
					t.Errorf("correct=%v failed=%d attempted=%d, notes %v", r.correct, r.failed, r.attempted, r.notes)
				}
				for _, m := range append(r.metrics, r.printed...) {
					v, ok := r.values[m.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %v)", m.Name, v, ok)
					}
				}
			}
			for _, m := range endToEnd {
				if a.values[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, a.values[m.Name])
				}
			}
			if tr.values["trace.spans"] < float64(cfg.ops) {
				t.Errorf("trace.spans = %v, want at least one per op", tr.values["trace.spans"])
			}
		})
	}
}
