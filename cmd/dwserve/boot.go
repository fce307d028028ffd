package main

import (
	"slices"
	"sync"
	"time"

	"dwcomplement/internal/obs"
	"dwcomplement/internal/parse"
)

// bootLedger attributes the time from process start to the listener to
// contiguous phases — parse, vet, complement, then load, check, materialize
// (a first boot) or snapshot_load, verify (a restart), then replay, listen,
// and bootstrap on a follower that started without a state. It is the boot
// object of /stats, the dw_boot_phase_seconds gauges and the boot log line.
type bootLedger struct {
	mu   sync.Mutex
	last time.Time     // end of the last phase recorded
	reg  *obs.Registry // the process's registry: it exists before the server does
	bootStats
}

func newBootLedger(start time.Time) *bootLedger {
	return &bootLedger{last: start, reg: obs.NewRegistry()}
}

type bootStats struct {
	Phases     []bootPhase `json:"phases"`
	TotalNs    int64       `json:"totalNs"`
	RowsLoaded int         `json:"rowsLoaded"` // CSV records; 0 on any boot but a first
	BytesRead  int64       `json:"bytesRead"`
}

type bootPhase struct {
	Phase string `json:"phase"`
	Ns    int64  `json:"ns"`
}

func (p bootPhase) String() string { return p.Phase + "=" + time.Duration(p.Ns).String() }

// mark ends the phase that has been running since the previous one ended.
func (b *bootLedger) mark(phase string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.add(phase, time.Since(b.last))
}

// loaded books a LoadState: its load time, the rest since the last mark as
// check, and what it read.
func (b *bootLedger) loaded(ls parse.LoadStats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.add("load", ls.Load)
	b.add("check", time.Since(b.last))
	b.RowsLoaded, b.BytesRead = ls.Rows, ls.Bytes
}

func (b *bootLedger) add(phase string, d time.Duration) {
	b.last = b.last.Add(d)
	b.Phases = append(b.Phases, bootPhase{phase, d.Nanoseconds()})
	b.TotalNs += d.Nanoseconds()
	b.reg.ObservedGauge("dw_boot_phase_seconds",
		"Start-up time by phase, process start to listener (a follower adds bootstrap).",
		obs.Labels{"phase": phase}).Set(d.Seconds())
}

func (b *bootLedger) stats() bootStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.bootStats
	st.Phases = slices.Clone(st.Phases)
	return st
}
