package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"byzcons"
)

// Every workload runs n=7, t=2 with no injected message delay, so latency
// is processor time plus loopback time.
const (
	groupN      = 7
	groupT      = 2
	symBits     = 8
	batchValues = 16
	instances   = 4
	// protocolSeed is the Config.Seed of every workload. It is pinned rather
	// than taken from --seed: the benchmark's seed drives only the inputs
	// (values, keys, arrival times), never the program's own settings.
	protocolSeed = 1
)

// workload is one set of inputs and the deployment they are served by.
type workload struct {
	name       string
	why        string
	transport  byzcons.TransportKind
	valueBytes int
	// shards > 0 serves the workload from OpenFleet with that many shards
	// and keyed proposals; 0 serves it from one Session.
	shards int
	// lightRate is the open loop's Poisson arrival rate, values/s. It stays
	// light on purpose, a cycle running a fifth of the time or less: nearer
	// capacity arrivals queue behind running cycles, the batch size feeds
	// back into the cycle time, and latency stops repeating from run to run.
	lightRate float64
	// outstanding is the closed phase's number of proposals kept in flight.
	outstanding int
	scenario    byzcons.Scenario
	// diagnosisPerBatch, when positive, is the number of diagnosis stages
	// every batch must run: the check that the adversary engaged.
	diagnosisPerBatch int
}

var workloads = []workload{
	{
		name:       "bulk-sim",
		why:        "paper's large-L regime on the simulator with 8 KiB values (1 Mbit per instance): the rs/gf/bitio coding core works, no wire or transport",
		transport:  byzcons.TransportSim,
		valueBytes: 8 << 10,
		// A cycle of one 8 KiB value takes about 14 ms of coding work, so
		// its open loop runs slower than the others' to stay light.
		lightRate:   12,
		outstanding: 2 * batchValues * instances,
	},
	{
		name:        "byzantine-bus",
		why:         "worst-case EdgeMiser adversary on 2 of 7 forces t(t+1)=6 diagnosis stages per batch over the in-process bus: full codec, no syscalls",
		transport:   byzcons.TransportBus,
		valueBytes:  64,
		lightRate:   50,
		outstanding: 2 * batchValues * instances,
		scenario: byzcons.Scenario{
			Faulty:   []int{0, 1},
			Behavior: byzcons.EdgeMiser{T: groupT},
		},
		diagnosisPerBatch: groupT * (groupT + 1),
	},
	{
		name:        "fleet-tcp",
		why:         "served path over the loopback TCP mesh, 4 shards with seeded keys whose cycles share peer connections at once: transport, syscalls and the fleet dominate",
		transport:   byzcons.TransportTCP,
		valueBytes:  64,
		shards:      4,
		lightRate:   20,
		outstanding: 4 * 2 * batchValues * instances,
	},
}

// stream separates the workloads' input streams under one seed.
func (w workload) stream() uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return h.Sum64()
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sessionConfig is the workload's deployment with every setting it relies
// on written out rather than left to a default, so a change of default
// fails loudly instead of silently changing the workload.
func (w workload) sessionConfig(onFlush func(byzcons.FlushReport)) byzcons.SessionConfig {
	return byzcons.SessionConfig{
		Config: byzcons.Config{
			N:             groupN,
			T:             groupT,
			SymBits:       symBits,
			Lanes:         0, // Eq. 2's optimal generation size
			Window:        1,
			Broadcast:     byzcons.BroadcastOracle,
			BroadcastCost: byzcons.DefaultBroadcastCost(groupN),
			Seed:          protocolSeed,
		},
		Scenario:  w.scenario,
		Transport: w.transport,
		PeerRetry: byzcons.PeerRetry{
			MinBackoff:   25 * time.Millisecond,
			MaxBackoff:   time.Second,
			MaxAttempts:  20,
			MaxFlaps:     64,
			StallTimeout: 20 * time.Second,
		},
		BatchValues: batchValues,
		BatchBytes:  1 << 20,
		Instances:   instances,
		Policy: byzcons.FlushPolicy{
			MaxValues: batchValues * instances,
			MaxBytes:  -1,
			MaxDelay:  5 * time.Millisecond,
		},
		ReportBuffer: 256,
		OnFlush:      onFlush,
	}
}

// settings is the record of a workload's pinned configuration printed with
// every run.
type settings struct {
	Workload    string              `json:"workload"`
	Transport   string              `json:"transport"`
	Config      byzcons.Config      `json:"config"`
	Broadcast   string              `json:"broadcast"`
	Faulty      []int               `json:"faulty"`
	Adversary   string              `json:"adversary"`
	BatchValues int                 `json:"batchValues"`
	BatchBytes  int                 `json:"batchBytes"`
	Instances   int                 `json:"instances"`
	Policy      byzcons.FlushPolicy `json:"policy"`
	PeerRetry   byzcons.PeerRetry   `json:"peerRetry"`
	Shards      int                 `json:"shards"`
	ValueBytes  int                 `json:"valueBytes"`
	LightRate   float64             `json:"lightRate"`
	Outstanding int                 `json:"outstanding"`
}

func (w workload) settings() settings {
	cfg := w.sessionConfig(nil)
	adv := "none"
	if cfg.Scenario.Behavior != nil {
		adv = fmt.Sprintf("%T%+v", cfg.Scenario.Behavior, cfg.Scenario.Behavior)
	}
	return settings{
		Workload:    w.name,
		Transport:   cfg.Transport.String(),
		Config:      cfg.Config,
		Broadcast:   cfg.Broadcast.String(),
		Faulty:      cfg.Scenario.Faulty,
		Adversary:   adv,
		BatchValues: cfg.BatchValues,
		BatchBytes:  cfg.BatchBytes,
		Instances:   cfg.Instances,
		Policy:      cfg.Policy,
		PeerRetry:   cfg.PeerRetry,
		Shards:      max(w.shards, 1),
		ValueBytes:  w.valueBytes,
		LightRate:   w.lightRate,
		Outstanding: w.outstanding,
	}
}

// target is the consensus deployment a run drives: a Session, or a Fleet
// whose proposals carry keys.
type target interface {
	propose(ctx context.Context, key, value []byte) (*byzcons.Pending, error)
	shardOf(key []byte) int
	stats() byzcons.SessionStats
	wireStats() byzcons.WireStats
	snapshot() byzcons.MetricsSnapshot
	close() error
}

type sessionTarget struct{ s *byzcons.Session }

func (t sessionTarget) propose(ctx context.Context, _, value []byte) (*byzcons.Pending, error) {
	return t.s.ProposeAsync(ctx, value)
}
func (t sessionTarget) shardOf([]byte) int                { return 0 }
func (t sessionTarget) stats() byzcons.SessionStats       { return t.s.Stats() }
func (t sessionTarget) wireStats() byzcons.WireStats      { return t.s.WireStats() }
func (t sessionTarget) snapshot() byzcons.MetricsSnapshot { return t.s.Snapshot() }
func (t sessionTarget) close() error                      { return t.s.Close() }

// fleetTarget also owns the goroutine that reads the fleet's Reports
// stream; reportsDone closes once it has exited.
type fleetTarget struct {
	f           *byzcons.Fleet
	reportsDone <-chan struct{}
}

func (t fleetTarget) propose(ctx context.Context, key, value []byte) (*byzcons.Pending, error) {
	return t.f.ProposeAsync(ctx, key, value)
}
func (t fleetTarget) shardOf(key []byte) int            { return t.f.ShardFor(key) }
func (t fleetTarget) stats() byzcons.SessionStats       { return t.f.Stats().Aggregate }
func (t fleetTarget) wireStats() byzcons.WireStats      { return t.f.WireStats() }
func (t fleetTarget) snapshot() byzcons.MetricsSnapshot { return t.f.Snapshot() }
func (t fleetTarget) close() error {
	err := t.f.Close()
	<-t.reportsDone // Close closes the Reports stream
	return err
}
