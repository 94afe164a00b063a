package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/trace"
)

func totalRefs(tr *trace.Trace) int64 {
	var n int64
	for i := range tr.Requests {
		n += int64(tr.Requests[i].Pages)
	}
	return n
}

func encode(tr *trace.Trace) ([]byte, error) {
	var b bytes.Buffer
	if err := trace.WriteBinary(&b, tr); err != nil {
		return nil, fmt.Errorf("encoding trace: %w", err)
	}
	return b.Bytes(), nil
}

// layerTotals accumulates a layer replay's costs across traces.
type layerTotals struct {
	decodeNs, decodeRefs, bytes int64
	stackNs, stackRefs, colds   int64
	ingestNs, ingestRefs        int64
	incMs, batchMs              []float64
	// mismatch is the first period whose batch decision differed from
	// the incremental one (the two paths are bit-identical by contract).
	mismatch error
}

// layerReplay feeds one trace through the layers a shard stacks, one
// layer at a time, so each layer's cost is timed on its own: block
// decode (trace.StreamReader.ReadBatch) when decode is set, then per
// period the LRU stack (lrusim.StackSim.Reference) over every page, the
// manager's streaming ingest (core.Manager.IngestBatch) over the
// resulting depth records, its boundary query
// (core.Manager.DecideIncremental), and batch core.Manager.Decide over
// the same period log on a second manager.
func layerReplay(e *env, tr *trace.Trace, p core.Params, installedPages int, decode bool, root int64, lt *layerTotals) error {
	refs := totalRefs(tr)
	if decode {
		data, err := encode(tr)
		if err != nil {
			return err
		}
		sr, err := trace.NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		buf := make([]trace.Request, 4096)
		var n int
		for {
			id := e.tr.begin("trace.ReadBatch", root, 0)
			m, err := sr.ReadBatch(buf)
			lt.decodeNs += e.tr.end(id)
			n += m
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("layer replay decode: %w", err)
			}
		}
		if n != len(tr.Requests) {
			return fmt.Errorf("layer replay decoded %d requests, want %d", n, len(tr.Requests))
		}
		lt.decodeRefs += refs
		lt.bytes += int64(len(data))
	}

	inc, err := core.NewManager(p)
	if err != nil {
		return err
	}
	batch, err := core.NewManager(p)
	if err != nil {
		return err
	}
	stack := lrusim.NewStackSim(installedPages)
	var (
		log      []lrusim.DepthRecord
		curPages = inc.Last().Pages
		curBanks = inc.Last().Banks
		period   = p.Period
		next     = period
		i        = 0
		idx      int64
	)
	reqs := tr.Requests
	for next <= tr.Duration || i < len(reqs) {
		idx++
		// The LRU stack over this period's pages, mirroring the shard's
		// hit/miss bookkeeping so the manager sees the same calibration.
		log = log[:0]
		var misses, runs int64
		id := e.tr.begin("lrusim.StackSim.Reference", root, idx)
		for ; i < len(reqs) && reqs[i].Time < next; i++ {
			r := reqs[i]
			var runStart, runLen int64 = -1, 0
			for k := int32(0); k < r.Pages; k++ {
				page := r.FirstPage + int64(k)
				depth := stack.Reference(page)
				log = append(log, lrusim.DepthRecord{Time: r.Time, Page: page, Depth: depth, Bytes: p.PageSize})
				if depth != lrusim.Cold && int64(depth) <= curPages {
					if runLen > 0 {
						runs++
						runLen = 0
					}
					continue
				}
				misses++
				if runLen > 0 && page == runStart+runLen {
					runLen++
				} else {
					if runLen > 0 {
						runs++
					}
					runStart, runLen = page, 1
				}
			}
			if runLen > 0 {
				runs++
			}
		}
		lt.stackNs += e.tr.end(id)
		lt.stackRefs += int64(len(log))

		id = e.tr.begin("core.Manager.IngestBatch", root, idx)
		for b := 0; b < len(log); b += 4096 {
			inc.IngestBatch(log[b:min(b+4096, len(log))])
		}
		lt.ingestNs += e.tr.end(id)
		lt.ingestRefs += int64(len(log))

		coalesce := 1.0
		if runs > 0 {
			coalesce = float64(misses) / float64(runs)
		}
		obs := core.Observation{
			CacheAccesses:  int64(len(log)),
			CoalesceFactor: coalesce,
			PeriodStart:    next - period,
			PeriodEnd:      next,
			CurrentBanks:   curBanks,
		}
		id = e.tr.begin("core.Manager.DecideIncremental", root, idx)
		start := time.Now()
		dec := inc.DecideIncremental(obs)
		lt.incMs = append(lt.incMs, float64(time.Since(start).Nanoseconds())/1e6)
		e.tr.end(id)

		obs.Log = log
		id = e.tr.begin("core.Manager.Decide", root, idx)
		start = time.Now()
		bdec := batch.Decide(obs)
		lt.batchMs = append(lt.batchMs, float64(time.Since(start).Nanoseconds())/1e6)
		e.tr.end(id)
		if (bdec.Banks != dec.Banks || bdec.Timeout != dec.Timeout || bdec.Level != dec.Level) && lt.mismatch == nil {
			lt.mismatch = fmt.Errorf("period %d: batch decision (%d banks, %v) differs from incremental (%d banks, %v)",
				idx, bdec.Banks, bdec.Timeout, dec.Banks, dec.Timeout)
		}
		curBanks, curPages = dec.Banks, dec.Pages
		next += period
	}
	_, colds := stack.Counters()
	lt.colds += colds
	return nil
}

// report stores the layer replay's per-layer metrics and counts its
// batch-versus-incremental comparison as an output check.
func (lt *layerTotals) report(e *env) {
	e.check("layer-replay-batch-equals-incremental", lt.mismatch)
	if lt.decodeRefs > 0 {
		e.layer["trace.decode_ns_per_ref"] = float64(lt.decodeNs) / float64(lt.decodeRefs)
		e.layer["trace.bytes_per_ref"] = float64(lt.bytes) / float64(lt.decodeRefs)
	}
	if lt.stackRefs > 0 {
		e.layer["lrusim.reference_ns_per_ref"] = float64(lt.stackNs) / float64(lt.stackRefs)
		e.layer["lrusim.cold_ratio"] = float64(lt.colds) / float64(lt.stackRefs)
	}
	if lt.ingestRefs > 0 {
		e.layer["core.ingest_ns_per_ref"] = float64(lt.ingestNs) / float64(lt.ingestRefs)
	}
	e.layer["core.decide_incremental_p50_ms"] = quantile(append([]float64(nil), lt.incMs...), 0.5)
	e.layer["core.decide_incremental_p99_ms"] = quantile(append([]float64(nil), lt.incMs...), 0.99)
	e.layer["core.decide_batch_ms"] = median(lt.batchMs)
}
