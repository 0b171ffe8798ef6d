package main

import (
	"os"
	"testing"
)

// TestProcIOLeavesOutItsOwnReads checks the calibration that lets syscall
// deltas leave out the benchmark's reads of /proc/self/io: with nothing
// else reading, the counter moves by exactly readsPerProcIO per call.
func TestProcIOLeavesOutItsOwnReads(t *testing.T) {
	if _, err := os.Stat("/proc/self/io"); err != nil {
		t.Skip("no /proc/self/io")
	}
	if readsPerProcIO <= 0 {
		t.Fatalf("readsPerProcIO = %d", readsPerProcIO)
	}
	r0, _, c0 := procIO()
	for i := 0; i < 5; i++ {
		procIO()
	}
	r1, _, c1 := procIO()
	if c1-c0 != 6 || r1-r0 != 6*readsPerProcIO {
		t.Errorf("6 calls moved syscr by %d and the call count by %d, want %d and 6", r1-r0, c1-c0, 6*readsPerProcIO)
	}
}
