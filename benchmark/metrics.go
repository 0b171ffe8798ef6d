package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"byzcons"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is what a pass measured besides its metrics: the outcome counts
// the result line carries, and the sample record printed next to it.
type summary struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Sample counts behind each latency, and how late the open-loop
	// generator submitted against its schedule.
	Setups        int `json:"setups"`
	LightSamples  int `json:"lightSamples"`
	SatSamples    int `json:"satSamples"`
	SatThroughput int `json:"satThroughputSamples"`
	// Each phase's latency tail; see the package comment for why the
	// tails are not end-to-end metrics.
	LightTail    tail    `json:"lightTail"`
	SatTail      tail    `json:"satTail"`
	GenLateP50Ms float64 `json:"genLateP50Ms"`
	GenLateP99Ms float64 `json:"genLateP99Ms"`
	GenLateMaxMs float64 `json:"genLateMaxMs"`
}

func (s *summary) problem(format string, args ...any) {
	if len(s.Problems) < 20 {
		s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd computes the metrics a user of the system sees, and checks
// every decision.
func (ps *pass) endToEnd() (metricSet, *summary) {
	m := metricSet{}
	sum := &summary{Setups: len(ps.setups)}

	setups := make([]float64, len(ps.setups))
	for i, s := range ps.setups {
		setups[i] = s.total().Seconds()
	}
	m.put("setup_s", median(setups), "s")

	for _, p := range ps.props {
		sum.Attempted++
		if !p.ok {
			sum.Failed++
			sum.problem("proposal %d: %s", p.id, p.err)
		}
	}
	var light, sat, late []float64
	for _, p := range ps.props {
		if !p.ok {
			continue
		}
		switch p.phase {
		case phaseLight:
			light = append(light, ms(p.decided.Sub(p.due)))
			late = append(late, ms(p.sent.Sub(p.due)))
		case phaseSat:
			sat = append(sat, ms(p.decided.Sub(p.sent)))
		}
	}
	// Throughput and CPU per value are medians over the rounds, so a slow
	// stretch of a shared host that covers one round does not move them.
	segs := ps.satCycles(ps.link())
	var rates, cpus []float64
	satCount, shards := 0, max(ps.w.shards, 1)
	for r, cost := range ps.satRounds {
		rate, n, sh := satRate(roundSegments(segs, r))
		rates = append(rates, rate)
		satCount += n
		shards = min(shards, sh)
		cpus = append(cpus, ratio(ms(cost.cpu), float64(cost.decided)))
	}
	sum.LightSamples, sum.SatSamples, sum.SatThroughput = len(light), len(sat), satCount
	sum.GenLateP50Ms = percentile(late, 0.50)
	sum.GenLateP99Ms = percentile(late, 0.99)
	sum.GenLateMaxMs = percentile(late, 1)
	sum.LightTail, sum.SatTail = tailOf(light), tailOf(sat)
	m.put("light_p50_ms", percentile(light, 0.50), "ms")
	m.put("values_per_s", median(rates), "1/s")
	m.put("bits_per_value", ratio(float64(ps.sat.bits), float64(ps.sat.decided)), "bit")
	m.put("cpu_ms_per_value", median(cpus), "ms")
	m.put("peak_rss_mb", float64(ps.peakRSS)/(1<<20), "MB")

	ps.checkCycles(sum)
	if len(light) == 0 {
		sum.problem("no open-loop decisions")
	}
	if want := max(ps.w.shards, 1); len(ps.satRounds) == 0 || shards < want {
		sum.problem("in some round only %d of %d shards ran a closed-loop cycle after their first", shards, want)
	}
	if ps.unmapped > 0 || ps.reportsDropped > 0 {
		sum.problem("%d cycles without a shard, %d fleet reports dropped", ps.unmapped, ps.reportsDropped)
	}
	return m, sum
}

// segment is one shard's share of one round's closed loop.
type segment struct{ shard, round int }

// satCycles returns each closed segment's cycles, per shard in the order
// they ended, keeping only cycles that ended before their segment stopped
// submitting, so the drain's partial cycles do not count.
func (ps *pass) satCycles(l linked) map[segment][]*cycleRec {
	segs := make(map[segment][]*cycleRec)
	for _, c := range ps.cycles {
		if p, ok := l.member[c]; ok && p.phase == phaseSat && !c.end.After(ps.satEnd[p.round]) {
			k := segment{c.shard, p.round}
			segs[k] = append(segs[k], c)
		}
	}
	for _, cs := range segs {
		slices.SortFunc(cs, func(a, b *cycleRec) int { return a.end.Compare(b.end) })
	}
	return segs
}

// roundSegments returns the segments of round r.
func roundSegments(segs map[segment][]*cycleRec, r int) map[segment][]*cycleRec {
	out := make(map[segment][]*cycleRec)
	for k, cs := range segs {
		if k.round == r {
			out[k] = cs
		}
	}
	return out
}

// satRate returns the closed loop's decided values per second in steady
// state, how many values it counted and on how many shards. On each shard
// and in each segment it counts the values of the cycles after the first
// and divides by the time from the first cycle's end to the last one's, so
// neither the ramp-up nor a cycle cut off by the segment's end skews it;
// the shards' rates add up to the deployment's.
func satRate(segs map[segment][]*cycleRec) (rate float64, values, shards int) {
	type total struct {
		values int
		time   time.Duration
	}
	perShard := make(map[int]total)
	for k, cs := range segs {
		if len(cs) < 2 {
			continue
		}
		t := perShard[k.shard]
		for _, c := range cs[1:] {
			t.values += c.rep.Values
		}
		t.time += cs[len(cs)-1].end.Sub(cs[0].end)
		perShard[k.shard] = t
	}
	for _, t := range perShard {
		rate += ratio(float64(t.values), t.time.Seconds())
		values += t.values
	}
	return rate, values, len(perShard)
}

// checkCycles checks every flush cycle of the measured deployment: no
// instance failed or degraded, no batch decided the default, and on the
// adversarial workload every batch ran the full diagnosis count.
func (ps *pass) checkCycles(sum *summary) {
	batches := 0
	for _, c := range ps.cycles {
		if c.rep.Err != nil {
			sum.problem("cycle %d: %v", c.rep.Cycle, c.rep.Err)
		}
		if c.rep.Degraded {
			sum.problem("cycle %d degraded around peers %v", c.rep.Cycle, c.rep.DegradedPeers)
		}
		for _, b := range c.rep.Batches {
			batches++
			if b.Defaulted {
				sum.problem("batch %d decided the default value", b.Batch)
			}
			if want := ps.w.diagnosisPerBatch; want > 0 && b.DiagnosisRuns != want {
				sum.problem("batch %d ran %d diagnosis stages, want %d", b.Batch, b.DiagnosisRuns, want)
			}
		}
	}
	if batches == 0 {
		sum.problem("no batches recorded")
	}
}

// cycleKey identifies a batch across a fleet: batch numbers count per shard.
type cycleKey struct{ shard, batch int }

// linked is the join of proposals and cycles through Decision.Batch.
type linked struct {
	cycleOf map[*proposal]*cycleRec
	// member is one proposal each cycle decided: a cycle decides proposals
	// of one phase and round only, since every segment drains before the
	// next starts.
	member map[*cycleRec]*proposal
}

func (ps *pass) link() linked {
	byBatch := make(map[cycleKey]*cycleRec)
	for _, c := range ps.cycles {
		for _, b := range c.rep.Batches {
			byBatch[cycleKey{c.shard, b.Batch}] = c
		}
	}
	l := linked{cycleOf: make(map[*proposal]*cycleRec), member: make(map[*cycleRec]*proposal)}
	for _, p := range ps.props {
		if c, ok := byBatch[cycleKey{p.shard, p.batch}]; ok && p.ok {
			l.cycleOf[p] = c
			l.member[c] = p
		}
	}
	return l
}

// perLayer computes the traced pass's per-layer metrics; traced holds its
// end-to-end metrics and base the untraced pass's, for the tracing
// overhead.
func (ps *pass) perLayer(traced, base metricSet) (metricSet, error) {
	m := metricSet{}
	w := ps.w
	l := ps.link()

	opens := make([]float64, len(ps.setups))
	firsts := make([]float64, len(ps.setups))
	for i, s := range ps.setups {
		opens[i], firsts[i] = ms(s.open), ms(s.firstDecision)
	}
	m.put("api.open_ms", median(opens), "ms")
	m.put("api.first_decision_ms", median(firsts), "ms")

	var lightCycles, satCycles []*cycleRec
	for _, c := range ps.cycles {
		if p, ok := l.member[c]; ok && p.phase == phaseLight {
			lightCycles = append(lightCycles, c)
		}
	}
	for _, cs := range ps.satCycles(l) {
		satCycles = append(satCycles, cs...)
	}
	var cycleTime time.Duration
	for _, c := range satCycles {
		cycleTime += c.rep.Timing.Cycle
	}
	m.put("engine.cycle_ms", ratio(ms(cycleTime), float64(len(satCycles))), "ms")

	var qwait float64
	var qn int
	for p, c := range l.cycleOf {
		if p.phase == phaseLight {
			qwait += ms(c.start.Sub(p.sent))
			qn++
		}
	}
	m.put("engine.queue_wait_ms", ratio(qwait, float64(qn)), "ms")

	var satValues, lightRounds float64
	var timing byzcons.FlushTiming
	var packed []int
	var bits []int64
	var gens, diags float64
	windows := make([]interval, 0, len(satCycles))
	for _, c := range satCycles {
		satValues += float64(c.rep.Values)
		timing.Match += c.rep.Timing.Match
		timing.Broadcast += c.rep.Timing.Broadcast
		timing.RS += c.rep.Timing.RS
		timing.Diagnosis += c.rep.Timing.Diagnosis
		for _, b := range c.rep.Batches {
			packed = append(packed, b.PackedBits)
			bits = append(bits, b.Bits)
			gens += float64(b.Generations)
			diags += float64(b.DiagnosisRuns)
		}
		windows = append(windows, interval{c.start.UnixNano(), c.end.UnixNano()})
	}
	for _, c := range lightCycles {
		lightRounds += float64(c.rep.Rounds)
	}
	m.put("engine.values_per_cycle", ratio(satValues, float64(len(satCycles))), "count")
	m.put("engine.cycle_fill", ratio(satValues, float64(len(satCycles)*batchValues*instances)), "ratio")
	m.put("consensus.rounds_per_cycle", ratio(lightRounds, float64(len(lightCycles))), "count")
	m.put("consensus.generations_per_batch", ratio(gens, float64(len(packed))), "count")
	m.put("consensus.diagnosis_per_batch", ratio(diags, float64(len(packed))), "count")
	overCcon, overLeading := costRatios(groupN, groupT, symBits, byzcons.DefaultBroadcastCost(groupN), packed, bits)
	m.put("consensus.bits_over_ccon", overCcon, "ratio")
	m.put("consensus.bits_over_leading", overLeading, "ratio")
	m.put("consensus.match_ms_per_value", ratio(ms(timing.Match), satValues), "ms")
	m.put("consensus.broadcast_ms_per_value", ratio(ms(timing.Broadcast), satValues), "ms")
	m.put("consensus.rs_ms_per_value", ratio(ms(timing.RS), satValues), "ms")
	m.put("consensus.diagnosis_ms_per_value", ratio(ms(timing.Diagnosis), satValues), "ms")

	m.put("node.round_wait_ms", ratio(float64(ps.light.roundWaitNs)/1e6, float64(ps.light.waits)), "ms")

	// Closed-loop counter deltas, per decided value.
	sat := ps.sat
	decided := float64(sat.decided)
	frames := float64(sat.frames)
	wireBytes := float64(sat.wireBytes)
	writes := float64(sat.syscw)
	reads := float64(sat.syscr)
	m.put("wire.bytes_per_frame", ratio(wireBytes, frames), "B")
	m.put("wire.bytes_per_value", ratio(wireBytes, decided), "B")
	m.put("transport.frames_per_value", ratio(frames, decided), "count")
	m.put("transport.write_syscalls_per_value", ratio(writes, decided), "count")
	m.put("transport.read_syscalls_per_value", ratio(reads, decided), "count")
	perWrite := 0.0
	if w.transport == byzcons.TransportTCP { // no other transport makes syscalls
		perWrite = ratio(frames, writes)
	}
	m.put("transport.frames_per_write", perWrite, "count")
	m.put("transport.syscall_share", ratio(float64(ps.profile.syscall), float64(ps.profile.total)), "ratio")
	m.put("transport.reconnects", float64(ps.reconnects), "count")

	m.put("fleet.peak_concurrent_cycles", float64(peakConcurrency(windows)), "count")
	perShard := make([]float64, max(w.shards, 1))
	for _, p := range ps.props {
		if p.ok && p.phase == phaseSat && !p.decided.After(ps.satEnd[p.round]) {
			perShard[p.shard]++
		}
	}
	var top, all float64
	for _, v := range perShard {
		top = math.Max(top, v)
		all += v
	}
	m.put("fleet.shard_skew", ratio(top, all/float64(len(perShard))), "ratio")

	m.put("runtime.alloc_kb_per_value", ratio(float64(sat.alloc)/1024, decided), "KiB")
	m.put("runtime.mallocs_per_value", ratio(float64(sat.mallocs), decided), "count")
	m.put("runtime.gc_cpu_fraction", ratio(sat.gcCPU, sat.totalCPU), "ratio")

	// CPU split by layer; every profile sample lands in exactly one layer,
	// so the layers must sum to the profiled total.
	var layerSum int64
	for _, name := range layers {
		ns := ps.profile.byLayer[name]
		layerSum += ns
		m.put(name+".cpu_us_per_value", ratio(float64(ns)/1e3, decided), "us")
	}
	if layerSum != ps.profile.total {
		return nil, fmt.Errorf("layer attribution sums to %d ns of %d ns profiled", layerSum, ps.profile.total)
	}

	for _, name := range endToEndNames {
		// The process's peak memory spans both passes of a traced run, so
		// it has no traced-minus-untraced difference to report.
		if name == "peak_rss_mb" {
			continue
		}
		m.put("trace."+name+"_delta", traced[name].Value-base[name].Value, traced[name].Unit)
	}
	return m, nil
}

// endToEndNames lists the end-to-end metrics in the manifest's order.
var endToEndNames = []string{
	"setup_s", "light_p50_ms", "values_per_s",
	"bits_per_value", "cpu_ms_per_value", "peak_rss_mb",
}
