package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

// span is one line of the span file. Times are nanoseconds since the pass
// started; a proposal's parent is the cycle that decided it.
type span struct {
	Kind     string         `json:"kind"` // open, proposal or cycle
	ID       int            `json:"id"`
	Start    int64          `json:"start"`
	End      int64          `json:"end"`
	Sent     int64          `json:"sent,omitempty"`
	Phase    string         `json:"phase,omitempty"`
	Shard    int            `json:"shard"`
	Parent   int            `json:"parent"` // cycle id for proposals, -1 for none
	Batches  []int          `json:"batches,omitempty"`
	Values   int            `json:"values,omitempty"`
	Counters *cycleCounters `json:"counters,omitempty"`
	Err      string         `json:"err,omitempty"`
}

var phaseNames = [...]string{phaseWarmup: "warmup", phaseLight: "light", phaseSat: "sat"}

// writeSpans writes the pass's spans, kept in memory while it ran, as
// JSON lines and returns the file's path.
func (ps *pass) writeSpans(seed uint64) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", ps.w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	at := func(t time.Time) int64 { return t.Sub(ps.runStart).Nanoseconds() }
	for i, s := range ps.setups {
		enc.Encode(span{Kind: "open", ID: i, Start: at(s.at), End: at(s.at.Add(s.total())), Parent: -1})
	}
	cycleID := make(map[*cycleRec]int, len(ps.cycles))
	for i, c := range ps.cycles {
		cycleID[c] = i
		sp := span{Kind: "cycle", ID: i, Start: at(c.start), End: at(c.end), Shard: c.shard,
			Parent: -1, Values: c.rep.Values, Counters: c.ctr}
		for _, b := range c.rep.Batches {
			sp.Batches = append(sp.Batches, b.Batch)
		}
		enc.Encode(sp)
	}
	l := ps.link()
	for _, p := range ps.props {
		sp := span{Kind: "proposal", ID: p.id, Start: at(p.due), Sent: at(p.sent), End: at(p.decided),
			Phase: phaseNames[p.phase], Shard: p.shard, Parent: -1, Err: p.err}
		if c, ok := l.cycleOf[p]; ok {
			sp.Parent = cycleID[c]
		}
		enc.Encode(sp)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
