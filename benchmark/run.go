package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"byzcons"
)

// setupRuns is how many times a pass opens the deployment; setup time is
// the median, and the last deployment opened serves the measured phases.
const setupRuns = 9

type phase uint8

const (
	phaseWarmup phase = iota
	phaseLight        // open loop: Poisson arrivals at the workload's lightRate
	phaseSat          // closed loop: a fixed number of proposals outstanding
)

// proposal is one submitted value and its outcome: the benchmark's span
// for it runs from due (the open-loop schedule's time, or the submit time
// in the closed loop) to decided.
type proposal struct {
	id      int
	phase   phase
	shard   int
	value   []byte // dropped once checked
	pending *byzcons.Pending

	due, sent, decided time.Time
	round              int // closed-loop round
	batch              int
	ok                 bool
	err                string
}

// cycleRec is one flush cycle as the OnFlush hook saw it.
type cycleRec struct {
	shard      int
	start, end time.Time
	rep        byzcons.FlushReport
	ctr        *cycleCounters // counter reads at the cycle's end; traced passes only
}

// cycleCounters is the traced pass's counter read at a cycle boundary.
type cycleCounters struct {
	Wire         byzcons.WireStats `json:"wire"`
	Syscr        int64             `json:"syscr"`
	Syscw        int64             `json:"syscw"`
	RoundWaitNs  int64             `json:"roundWaitNs"`
	RoundWaits   int64             `json:"roundWaits"`
	QueueWaitNs  int64             `json:"queueWaitNs"`
	QueueWaits   int64             `json:"queueWaits"`
	EngineCycles int64             `json:"engineCycles"`
}

// recorder collects the cycles of one deployment.
type recorder struct {
	traced bool

	mu     sync.Mutex
	tgt    target
	cycles []*cycleRec
	// shardOf maps a fleet cycle's first BatchStats to its shard. The
	// fleet's OnFlush hook does not say which shard ran the cycle; its
	// shard-tagged Reports stream carries the same report, whose Batches
	// share one backing array with the hook's copy.
	shardOf map[*byzcons.BatchStats]int
}

func (r *recorder) onFlush(rep byzcons.FlushReport) {
	end := time.Now()
	c := &cycleRec{start: end.Add(-rep.Timing.Cycle), end: end, rep: rep}
	r.mu.Lock()
	tgt := r.tgt
	r.mu.Unlock()
	if r.traced && tgt != nil {
		c.ctr = readCycleCounters(tgt)
	}
	r.mu.Lock()
	r.cycles = append(r.cycles, c)
	r.mu.Unlock()
}

func readCycleCounters(tgt target) *cycleCounters {
	c := &cycleCounters{Wire: tgt.wireStats()}
	c.Syscr, c.Syscw, _ = procIO()
	snap := tgt.snapshot()
	rw := snap.Histograms["node_round_wait_ns"]
	qw := snap.Histograms["engine_queue_wait_ns"]
	c.RoundWaitNs, c.RoundWaits = rw.Sum, rw.Count
	c.QueueWaitNs, c.QueueWaits = qw.Sum, qw.Count
	c.EngineCycles = snap.Histograms["engine_cycle_ns"].Count
	return c
}

// open starts the workload's deployment with its cycles recorded by rec.
func (w workload) open(rec *recorder) (target, error) {
	cfg := w.sessionConfig(rec.onFlush)
	var tgt target
	if w.shards == 0 {
		s, err := byzcons.Open(cfg)
		if err != nil {
			return nil, err
		}
		tgt = sessionTarget{s}
	} else {
		f, err := byzcons.OpenFleet(byzcons.FleetConfig{SessionConfig: cfg, Shards: w.shards})
		if err != nil {
			return nil, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for r := range f.Reports() {
				if len(r.Batches) > 0 {
					rec.mu.Lock()
					rec.shardOf[&r.Batches[0]] = r.Shard
					rec.mu.Unlock()
				}
			}
		}()
		tgt = fleetTarget{f: f, reportsDone: done}
	}
	rec.mu.Lock()
	rec.tgt = tgt
	rec.mu.Unlock()
	return tgt, nil
}

// inputs generates a pass's values and keys from the benchmark seed.
type inputs struct {
	w   workload
	rng *rand.Rand
	tgt target
	n   int
}

func (in *inputs) next(ph phase) *proposal {
	v := make([]byte, in.w.valueBytes)
	for i := 0; i+8 <= len(v); i += 8 {
		binary.LittleEndian.PutUint64(v[i:], in.rng.Uint64())
	}
	// The id prefix makes every value distinct, so a decision delivered
	// to the wrong proposal cannot pass the check.
	binary.LittleEndian.PutUint64(v, uint64(in.n))
	p := &proposal{id: in.n, phase: ph, value: v}
	in.n++
	return p
}

// key draws a fleet routing key; Sessions take none.
func (in *inputs) key() []byte {
	if in.w.shards == 0 {
		return nil
	}
	k := make([]byte, 16)
	binary.LittleEndian.PutUint64(k, in.rng.Uint64())
	binary.LittleEndian.PutUint64(k[8:], in.rng.Uint64())
	return k
}

// submit proposes p with key and returns whether the program accepted it.
func (in *inputs) submit(ctx context.Context, p *proposal, key []byte) bool {
	p.shard = in.tgt.shardOf(key)
	p.sent = time.Now()
	if p.due.IsZero() {
		p.due = p.sent
	}
	pend, err := in.tgt.propose(ctx, key, p.value)
	if err != nil {
		p.err = err.Error()
		p.value = nil
		return false
	}
	p.pending = pend
	return true
}

// await waits for p's decision and checks it against the submitted bytes.
func await(ctx context.Context, p *proposal) {
	select {
	case <-p.pending.Done():
	case <-ctx.Done():
	}
	d := p.pending.Wait(ctx)
	p.decided = time.Now()
	p.batch = d.Batch
	switch {
	case d.Err != nil:
		p.err = d.Err.Error()
	case d.Defaulted:
		p.err = "decided the default value"
	case !bytes.Equal(d.Value, p.value):
		p.err = "decided value differs from the proposed bytes"
	default:
		p.ok = true
	}
	p.value = nil
	p.pending = nil
}

// setup is one timed open: Open/OpenFleet, then one warm-up proposal per
// shard until all decided.
type setup struct {
	at                  time.Time
	open, firstDecision time.Duration
}

func (s setup) total() time.Duration { return s.open + s.firstDecision }

// pass is everything one measured pass of a workload produced.
type pass struct {
	w      workload
	traced bool
	setups []setup

	props  []*proposal
	cycles []*cycleRec
	// When each round's closed segment stopped submitting.
	satEnd []time.Time

	// Summed costs of the light segments and of the closed segments, and
	// each closed segment's own.
	light, sat reading
	satRounds  []reading
	reconnects int64
	runStart   time.Time
	profile    attribution
	peakRSS    int64
	// Fleet cycles whose shard the Reports stream did not name, and the
	// reports the fleet dropped: either leaves a cycle on the wrong shard.
	unmapped, reportsDropped int
}

// reading is one snapshot of every cumulative counter the benchmark
// measures cost by; the difference of two readings is the cost of the
// stretch between them.
type reading struct {
	counters
	decided, bits      int64 // SessionStats
	frames, wireBytes  int64 // WireStats
	roundWaitNs, waits int64 // node_round_wait_ns histogram
	reconnects         int64 // WireStats, not summed by add
}

func takeReading(tgt target) reading {
	st, ws := tgt.stats(), tgt.wireStats()
	rw := tgt.snapshot().Histograms["node_round_wait_ns"]
	return reading{
		counters: readCounters(),
		decided:  int64(st.Decided), bits: st.Bits,
		frames: ws.FramesSent, wireBytes: ws.BytesSent,
		roundWaitNs: rw.Sum, waits: rw.Count,
		reconnects: ws.Reconnects,
	}
}

// add accumulates the cost between readings from and to.
func (r *reading) add(from, to reading) {
	r.cpu += to.cpu - from.cpu
	// Leave out the reads of /proc/self/io the benchmark made in between.
	r.syscr += to.syscr - from.syscr - (to.procIOs-from.procIOs)*readsPerProcIO
	r.syscw += to.syscw - from.syscw
	r.alloc += to.alloc - from.alloc
	r.mallocs += to.mallocs - from.mallocs
	r.gcCPU += to.gcCPU - from.gcCPU
	r.totalCPU += to.totalCPU - from.totalCPU
	r.decided += to.decided - from.decided
	r.bits += to.bits - from.bits
	r.frames += to.frames - from.frames
	r.wireBytes += to.wireBytes - from.wireBytes
	r.roundWaitNs += to.roundWaitNs - from.roundWaitNs
	r.waits += to.waits - from.waits
}

// runPass opens the workload setupRuns times and measures the last
// deployment through the open-loop and the closed-loop phase.
func runPass(ctx context.Context, w workload, seed uint64, seconds float64, traced bool) (*pass, error) {
	ps := &pass{w: w, traced: traced, runStart: time.Now()}
	rng := rand.New(rand.NewPCG(seed, w.stream()))
	var tgt target
	var rec *recorder
	for i := 0; i < setupRuns; i++ {
		if tgt != nil {
			if err := tgt.close(); err != nil {
				return nil, fmt.Errorf("closing setup %d: %w", i, err)
			}
		}
		rec = &recorder{traced: traced, shardOf: make(map[*byzcons.BatchStats]int)}
		t0 := time.Now()
		var err error
		if tgt, err = w.open(rec); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		t1 := time.Now()
		in := &inputs{w: w, rng: rng, tgt: tgt}
		if err := warmup(ctx, in); err != nil {
			tgt.close()
			return nil, err
		}
		ps.setups = append(ps.setups, setup{at: t0, open: t1.Sub(t0), firstDecision: time.Since(t1)})
	}
	err := ps.measure(ctx, tgt, rng, seed, seconds)
	if cErr := tgt.close(); err == nil && cErr != nil {
		err = fmt.Errorf("close: %w", cErr)
	}
	if err != nil {
		return nil, err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, c := range rec.cycles {
		if w.shards > 0 && len(c.rep.Batches) > 0 {
			if s, ok := rec.shardOf[&c.rep.Batches[0]]; ok {
				c.shard = s
			} else {
				ps.unmapped++
			}
		}
	}
	if w.shards > 0 {
		ps.reportsDropped = tgt.stats().ReportsDropped
	}
	ps.cycles = rec.cycles
	ps.peakRSS = peakRSSBytes()
	return ps, nil
}

// warmup proposes one value on every shard and waits for all decisions.
func warmup(ctx context.Context, in *inputs) error {
	shards := max(in.w.shards, 1)
	var props []*proposal
	covered := make([]bool, shards)
	for left := shards; left > 0; {
		key := in.key()
		s := in.tgt.shardOf(key)
		if covered[s] {
			continue
		}
		covered[s] = true
		left--
		p := in.next(phaseWarmup)
		if !in.submit(ctx, p, key) {
			return fmt.Errorf("warm-up proposal: %s", p.err)
		}
		props = append(props, p)
	}
	for _, p := range props {
		await(ctx, p)
		if !p.ok {
			return fmt.Errorf("warm-up proposal: %s", p.err)
		}
	}
	return nil
}

// rounds is how many times a pass alternates its open-loop and its
// closed-loop segment. Interleaving spreads both phases over the whole run,
// so a slow stretch of a shared host weighs on each phase alike instead of
// on whichever phase it happened to fall in.
const rounds = 6

// lightShare is the share of a pass's seconds the open loop takes; the
// closed loop takes the rest.
const lightShare = 0.5

// measure runs the measured rounds on tgt. Each round first submits its
// share of lightShare·seconds·lightRate Poisson arrivals, timed from their
// due times, and waits for them; then it keeps the workload's number of
// proposals outstanding for its share of the remaining seconds (longer if
// fewer than that many resolved meanwhile) and drains them.
func (ps *pass) measure(ctx context.Context, tgt target, rng *rand.Rand, seed uint64, seconds float64) error {
	w := ps.w
	in := &inputs{w: w, rng: rng, tgt: tgt, n: 1 << 20}
	lightCount := int(math.Ceil(lightShare * seconds * w.lightRate / rounds))
	satDur := time.Duration((1 - lightShare) * seconds / rounds * float64(time.Second))

	// One collector per shard awaits that shard's decisions in submission
	// order, which is the order a shard resolves them.
	shards := max(w.shards, 1)
	queues := make([]chan *proposal, shards)
	// Each credit is one closed-loop proposal resolved; at most
	// outstanding are in flight, so sends never block.
	credits := make(chan struct{}, w.outstanding)
	var lightWG, collectors sync.WaitGroup
	for s := range queues {
		// Sized above the most proposals a shard can have in flight (a
		// round's light arrivals or the outstanding ones), so the generator
		// never blocks handing one over.
		queues[s] = make(chan *proposal, lightCount+w.outstanding+1)
		collectors.Add(1)
		go func(q <-chan *proposal) {
			defer collectors.Done()
			for p := range q {
				await(ctx, p)
				if p.phase == phaseLight {
					lightWG.Done()
				} else {
					credits <- struct{}{}
				}
			}
		}(queues[s])
	}
	defer func() {
		for _, q := range queues {
			close(q)
		}
		collectors.Wait()
	}()

	var samples []profSample
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		runtime.GC()
		lightBefore := takeReading(tgt)
		start := time.Now()
		for _, off := range poissonSchedule(seed*rounds+uint64(r), w.lightRate, lightCount) {
			due := start.Add(off)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			p := in.next(phaseLight)
			p.due = due
			ps.props = append(ps.props, p)
			if in.submit(ctx, p, in.key()) {
				lightWG.Add(1)
				queues[p.shard] <- p
			}
		}
		lightWG.Wait()
		lightAfter := takeReading(tgt)

		runtime.GC()
		var prof bytes.Buffer
		if ps.traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		before := takeReading(tgt)
		// The segment stops submitting once its time is up and at least
		// outstanding proposals resolved in it, so every segment measures
		// whole cycles even when a cycle outlasts the segment's time.
		planned := time.Now().Add(satDur)
		inFlight, resolved := 0, 0
		for ctx.Err() == nil {
			if inFlight == w.outstanding {
				<-credits
				inFlight--
				resolved++
			}
			if resolved >= w.outstanding && !time.Now().Before(planned) {
				break
			}
			p := in.next(phaseSat)
			p.round = r
			ps.props = append(ps.props, p)
			if in.submit(ctx, p, in.key()) {
				inFlight++
				queues[p.shard] <- p
			} else {
				resolved++ // refused: counted as failed
			}
		}
		satEnd := time.Now()
		for ; inFlight > 0; inFlight-- {
			<-credits
		}
		after := takeReading(tgt)
		ps.reconnects = after.reconnects
		var roundSamples []profSample
		if ps.traced {
			pprof.StopCPUProfile()
			var err error
			if roundSamples, err = parseCPUProfile(prof.Bytes()); err != nil {
				return err
			}
		}
		ps.light.add(lightBefore, lightAfter)
		ps.sat.add(before, after)
		var cost reading
		cost.add(before, after)
		ps.satRounds = append(ps.satRounds, cost)
		ps.satEnd = append(ps.satEnd, satEnd)
		samples = append(samples, roundSamples...)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("run deadline: %w", err)
	}
	ps.profile = attribute(samples)
	return nil
}
