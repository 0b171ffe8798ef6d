package main

import (
	"math"
	"testing"
	"time"

	"byzcons"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := func() []float64 {
		v := make([]float64, 100)
		for i := range v {
			v[i] = float64(100 - i) // 100..1, unsorted
		}
		return v
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs(), c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("p50 of {1,2,3} = %v, want 2", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
	// p99 of 1000 samples leaves exactly ten samples above it.
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	if got := percentile(v, 0.99); got != 989 {
		t.Errorf("p99 of 0..999 = %v, want 989", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // n..1, unsorted
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want tail
	}{
		{1000, tail{99, 990}}, // exactly ten beyond p99
		{999, tail{95, 950}},  // p99 would leave nine
		{200, tail{95, 190}},
		{192, tail{90, 173}},
		{100, tail{90, 90}},
		{99, tail{}},
		{0, tail{}},
	} {
		if got := tailOf(seq(c.n)); got != c.want {
			t.Errorf("tail of 1..%d = %+v, want %+v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 50, 2000)
	b := poissonSchedule(7, 50, 2000)
	c := poissonSchedule(8, 50, 2000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// 2000 arrivals at 50/s span about 40 s; the mean gap is 1/rate within
	// a few standard errors (sd of the mean gap = 20ms/sqrt(2000)).
	meanGap := a[len(a)-1].Seconds() / float64(len(a))
	if math.Abs(meanGap-0.02) > 4*0.02/math.Sqrt(2000) {
		t.Errorf("mean gap %.5fs, want about 0.02s", meanGap)
	}
	// Exponential gaps: about e^-1 of them exceed the mean.
	long := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > 20*time.Millisecond {
			long++
		}
	}
	if share := float64(long) / float64(len(a)-1); math.Abs(share-math.Exp(-1)) > 0.05 {
		t.Errorf("%.3f of gaps exceed the mean, want about %.3f", share, math.Exp(-1))
	}
}

func TestConcurrencySweep(t *testing.T) {
	for _, c := range []struct {
		name string
		ws   []interval
		peak int
	}{
		{"none", nil, 0},
		{"serial", []interval{{0, 10}, {10, 20}, {20, 30}}, 1},
		{"gap", []interval{{0, 10}, {20, 30}}, 1},
		{"two overlap", []interval{{0, 10}, {5, 15}}, 2},
		{"nested", []interval{{0, 100}, {10, 20}, {12, 18}}, 3},
		{"empty window", []interval{{5, 5}, {0, 10}}, 1},
	} {
		if peak := peakConcurrency(c.ws); peak != c.peak {
			t.Errorf("%s: peakConcurrency = %d, want %d", c.name, peak, c.peak)
		}
	}
}

func TestCostRatios(t *testing.T) {
	const n, tt, B = 7, 2, 98
	L := []int{2 << 20, 8192}
	ccon := make([]int64, len(L))
	lead := make([]int64, len(L))
	for i, l := range L {
		D := byzcons.OptimalD(n, tt, 8, int64(l), B)
		ccon[i] = byzcons.PredictCcon(n, tt, int64(l), D, B)
		lead[i] = byzcons.PredictLeading(n, tt, int64(l))
	}
	// Measuring exactly the prediction gives ratio 1.
	overCcon, _ := costRatios(n, tt, 8, B, L, ccon)
	_, overLead := costRatios(n, tt, 8, B, L, lead)
	if math.Abs(overCcon-1) > 1e-12 || math.Abs(overLead-1) > 1e-12 {
		t.Fatalf("ratios of the predictions themselves = %v, %v; want 1, 1", overCcon, overLead)
	}
	// The ratios pool bits over batches rather than averaging per batch.
	half := []int64{ccon[0] / 2, ccon[1] / 2}
	if got, _ := costRatios(n, tt, 8, B, L, half); math.Abs(got-float64(half[0]+half[1])/float64(ccon[0]+ccon[1])) > 1e-12 {
		t.Errorf("pooled ratio = %v", got)
	}
	// Eq. 3's leading term is n(n-1)/(n-2t)·L, and Eq. 1 exceeds it.
	if lead[0] != int64(n*(n-1))*int64(L[0])/int64(n-2*tt) {
		t.Errorf("leading term %d for L=%d", lead[0], L[0])
	}
	if ccon[0] <= lead[0] {
		t.Errorf("PredictCcon %d not above its leading term %d", ccon[0], lead[0])
	}
	if a, b := costRatios(n, tt, 8, B, nil, nil); a != 0 || b != 0 {
		t.Errorf("no batches: %v, %v", a, b)
	}
}

func TestSatRateSteadyState(t *testing.T) {
	t0 := time.Unix(0, 0)
	cyc := func(endMs, values int) *cycleRec {
		return &cycleRec{end: t0.Add(time.Duration(endMs) * time.Millisecond), rep: byzcons.FlushReport{Values: values}}
	}
	segs := map[segment][]*cycleRec{
		// Shard 0, two rounds: the first cycle of each only opens the
		// window, so 64+64 values over 100 ms, then 32 over 50 ms.
		{0, 0}: {cyc(100, 10), cyc(150, 64), cyc(200, 64)},
		{0, 1}: {cyc(1000, 64), cyc(1050, 32)},
		// Shard 1 runs at 64 values per 200 ms.
		{1, 0}: {cyc(300, 64), cyc(500, 64)},
		// One cycle opens a window but closes none.
		{1, 1}: {cyc(2000, 64)},
	}
	rate, values, shards := satRate(segs)
	want := 160/0.150 + 64/0.200
	if math.Abs(rate-want) > 1e-9 || values != 224 || shards != 2 {
		t.Errorf("satRate = (%v, %d, %d), want (%v, 224, 2)", rate, values, shards, want)
	}
	// A round's own rate counts only that round's segments: in round 1
	// shard 0 ran 32 values over 50 ms and shard 1 closed no window.
	rate, values, shards = satRate(roundSegments(segs, 1))
	if math.Abs(rate-640) > 1e-9 || values != 32 || shards != 1 {
		t.Errorf("round 1 satRate = (%v, %d, %d), want (640, 32, 1)", rate, values, shards)
	}
	if _, _, shards := satRate(map[segment][]*cycleRec{{0, 0}: {cyc(5, 64)}}); shards != 0 {
		t.Errorf("a lone cycle measured %d shards", shards)
	}
}
