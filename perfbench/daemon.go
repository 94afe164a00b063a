package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"jointpm/internal/serve"
	"jointpm/internal/simtime"
)

// What both daemon workloads share: the comparable form of a published
// decision, and the checkpoint and restart measurements.

// decision is the comparable part of one published decision.
type decision struct {
	Disk     string
	Period   int64
	Banks    int
	Pages    int64
	Timeout  simtime.Seconds
	Fallback bool
	Level    int
}

func (d decision) String() string {
	return fmt.Sprintf("%s period %d: banks=%d pages=%d timeout=%v fallback=%t level=%d",
		d.Disk, d.Period, d.Banks, d.Pages, d.Timeout, d.Fallback, d.Level)
}

// sameDecisions reports the first difference between two decision
// streams.
func sameDecisions(got, want []decision) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		// Timeouts compare with ==, which holds for +Inf (spin-down off).
		if g != w {
			return fmt.Errorf("decision %d differs: got %v, want %v", i, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d decisions, want %d", len(got), len(want))
	}
	return nil
}

func fromServe(d serve.Decision) decision {
	return decision{
		Disk:     d.Disk,
		Period:   d.Period,
		Banks:    d.Decision.Banks,
		Pages:    d.Decision.Pages,
		Timeout:  d.Decision.Timeout,
		Fallback: d.Decision.Fallback,
		Level:    d.Decision.Level,
	}
}

// timeCheckpoint cuts one checkpoint of srv, recording its wall time and
// the snapshot file's size.
func timeCheckpoint(e *env, srv *serve.Server, path string) error {
	id := e.tr.begin("serve.Server.Checkpoint", 0, 0)
	start := time.Now()
	err := srv.Checkpoint()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	e.tr.end(id)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("checkpoint file: %w", err)
	}
	e.layer["serve.checkpoint_ms"] = ms
	e.layer["serve.snapshot_bytes"] = float64(st.Size())
	return nil
}

// timeRestart restarts a daemon from cfg.SnapshotPath n times — a new
// server (serve.New) plus Server.Restore — and returns the last
// restarted server. The median restart and Restore times are recorded.
func timeRestart(e *env, cfg serve.Config, n int) (*serve.Server, error) {
	var restarts, restores []float64
	var srv *serve.Server
	for i := 0; i < n; i++ {
		id := e.tr.begin("bench.restart", 0, 0)
		start := time.Now()
		nid := e.tr.begin("serve.New", id, 0)
		s, err := serve.New(cfg)
		e.tr.end(nid)
		if err != nil {
			return nil, err
		}
		rid := e.tr.begin("serve.Server.Restore", id, 0)
		rstart := time.Now()
		names, err := s.Restore()
		restores = append(restores, float64(time.Since(rstart).Nanoseconds())/1e6)
		e.tr.end(rid)
		restarts = append(restarts, time.Since(start).Seconds())
		e.tr.end(id)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, errors.New("restore found no checkpointed shards")
		}
		srv = s
	}
	e.layer["serve.restart_s"] = median(restarts)
	e.layer["serve.restore_ms"] = median(restores)
	return srv, nil
}
