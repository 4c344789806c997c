package main

import (
	"testing"
	"time"
)

// smokeSizes run every workload in about a second.
func smokeSizes() sizes {
	return sizes{Build: 600, Alpha: 300, Beta: 600, Refresh: 600, Cold: 600,
		SetupReps: 2, DashboardReps: 2, MinBuilds: 2, BuildBurst: 5, DashboardBurst: 5, ColdBurst: 5, DeltaRate: 20}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, with
// every oracle on, and checks the result line: all metrics present and
// no failed operation.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"build", "dashboard", "refresh", "cold_storage"} {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				start := time.Now()
				res, err := execute(name, 3, 0.4, traced, t.TempDir(), smokeSizes())
				if err != nil {
					t.Fatal(err)
				}
				defs := e2eMetrics
				if traced {
					defs = layerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if !traced {
					for _, d := range defs {
						if v := res.Metrics[d.name].Value; !(v > 0) {
							t.Errorf("%s = %v, want > 0", d.name, v)
						}
					}
				}
				t.Logf("%s traced=%v in %v: %+v", name, traced, time.Since(start), res.Metrics)
			})
		}
	}
}
