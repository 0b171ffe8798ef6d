package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"byzcons/internal/rs.(*Code).Encode":          "rs",
		"byzcons/internal/gf.mulAddSliced":            "gf",
		"byzcons/internal/transport.(*tcpPeer).write": "transport",
		"byzcons/internal/node.(*Node).run.func1":     "node",
		"byzcons/internal/engine.New[...]":            "engine",
		"byzcons.(*Session).ProposeAsync":             "api",
		"byzcons.OpenFleet.func1":                     "api",
		"main.(*pass).measure":                        "bench",
		"runtime.mallocgc":                            "",
		"internal/poll.(*FD).Write":                   "",
		"syscall.Syscall":                             "",
		"byzconsx.Foo":                                "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLayersCoverEveryModule keeps the attribution buckets in step with the
// program's modules: a module missing from layers would break the check
// that the layers sum to the profiled CPU.
func TestLayersCoverEveryModule(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Skipf("module tree not present: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() && !slices.Contains(layers, e.Name()) {
			t.Errorf("internal module %q has no layer", e.Name())
		}
	}
	for _, l := range []string{"api", "bench", "runtime"} {
		if !slices.Contains(layers, l) {
			t.Errorf("layer %q missing", l)
		}
	}
}

func TestAttributeInnermostProgramFrame(t *testing.T) {
	samples := []profSample{
		// A syscall issued by the transport is charged to transport.
		{stack: []string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Write",
			"byzcons/internal/transport.(*tcpPeer).write", "byzcons/internal/node.(*Node).send"}, nanos: 30},
		// Allocation inside gf is charged to gf, not to its caller rs.
		{stack: []string{"runtime.mallocgc", "byzcons/internal/gf.NewMatrix", "byzcons/internal/rs.New"}, nanos: 20},
		// No program frame at all: the runtime.
		{stack: []string{"runtime.gcBgMarkWorker"}, nanos: 40},
		{stack: nil, nanos: 5},
		{stack: []string{"runtime.futex", "runtime.notesleep", "main.run"}, nanos: 7},
		{stack: []string{"byzcons.(*Session).ProposeAsync", "main.(*inputs).submit"}, nanos: 3},
	}
	a := attribute(samples)
	want := map[string]int64{"transport": 30, "gf": 20, "runtime": 45, "bench": 7, "api": 3}
	for l, ns := range want {
		if a.byLayer[l] != ns {
			t.Errorf("layer %s = %d ns, want %d", l, a.byLayer[l], ns)
		}
	}
	var sum int64
	for _, ns := range a.byLayer {
		sum += ns
	}
	if a.total != 105 || sum != a.total {
		t.Errorf("total %d, layers sum %d; want 105 both", a.total, sum)
	}
	if a.syscall != 37 {
		t.Errorf("syscall = %d ns, want 37 (the syscall stub and futex leaves)", a.syscall)
	}
}

// pbEnc is a minimal protobuf encoder for building test profiles.
type pbEnc struct{ b []byte }

func (e *pbEnc) varint(x uint64) {
	for x >= 0x80 {
		e.b = append(e.b, byte(x)|0x80)
		x >>= 7
	}
	e.b = append(e.b, byte(x))
}
func (e *pbEnc) uint(num int, x uint64) { e.varint(uint64(num) << 3); e.varint(x) }
func (e *pbEnc) bytes(num int, b []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}
func (e *pbEnc) packed(num int, xs ...uint64) {
	var p pbEnc
	for _, x := range xs {
		p.varint(x)
	}
	e.bytes(num, p.b)
}

func TestParseCPUProfileHandBuilt(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"byzcons/internal/gf.mul", "byzcons/internal/rs.Encode", "main.main"}
	var prof pbEnc
	valueType := func(typ, unit uint64) []byte {
		var v pbEnc
		v.uint(1, typ)
		v.uint(2, unit)
		return v.b
	}
	prof.bytes(1, valueType(1, 2))
	prof.bytes(1, valueType(3, 4))
	// Sample 1: location ids packed; sample 2: one location, unpacked.
	var s1, s2 pbEnc
	s1.packed(1, 1, 2)
	s1.packed(2, 1, 10_000_000)
	s2.uint(1, 2)
	s2.uint(2, 2)
	s2.uint(2, 20_000_000)
	prof.bytes(2, s1.b)
	prof.bytes(2, s2.b)
	// Location 1 holds gf.mul inlined into rs.Encode; location 2 is main.main.
	line := func(fn uint64) []byte {
		var l pbEnc
		l.uint(1, fn)
		l.uint(2, 42)
		return l.b
	}
	var loc1, loc2 pbEnc
	loc1.uint(1, 1)
	loc1.uint(3, 0x1234)
	loc1.bytes(4, line(1))
	loc1.bytes(4, line(2))
	loc2.uint(1, 2)
	loc2.bytes(4, line(3))
	prof.bytes(4, loc1.b)
	prof.bytes(4, loc2.b)
	for id, name := range []uint64{5, 6, 7} {
		var f pbEnc
		f.uint(1, uint64(id+1))
		f.uint(2, name)
		prof.bytes(5, f.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(12, 10_000_000) // period, ignored
	gzipped := func(b []byte) []byte {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(b)
		zw.Close()
		return gz.Bytes()
	}

	samples, err := parseCPUProfile(gzipped(prof.b))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	wantStack := []string{"byzcons/internal/gf.mul", "byzcons/internal/rs.Encode", "main.main"}
	if !slices.Equal(samples[0].stack, wantStack) || samples[0].nanos != 10_000_000 {
		t.Errorf("sample 0 = %v %d", samples[0].stack, samples[0].nanos)
	}
	if !slices.Equal(samples[1].stack, []string{"main.main"}) || samples[1].nanos != 20_000_000 {
		t.Errorf("sample 1 = %v %d", samples[1].stack, samples[1].nanos)
	}
	a := attribute(samples)
	if a.byLayer["gf"] != 10_000_000 || a.byLayer["bench"] != 20_000_000 {
		t.Errorf("attribution %v", a.byLayer)
	}

	// The trailing period field loses its tail.
	if _, err := parseCPUProfile(gzipped(prof.b[:len(prof.b)-3])); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

var burnSink uint64

func burnCPU(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	burnSink = x
}

func TestParseCPUProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if len(samples) == 0 || a.total < int64(100*time.Millisecond) {
		t.Fatalf("%d samples, %v CPU; want a few hundred ms of burn", len(samples), time.Duration(a.total))
	}
	var burn int64
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burnCPU") {
				burn += s.nanos
				break
			}
		}
	}
	if burn < a.total/2 {
		t.Errorf("burnCPU frames carry %v of %v profiled", time.Duration(burn), time.Duration(a.total))
	}
}
