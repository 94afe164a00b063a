package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// StreamOptions parameterizes the server's stream pumps (ServeStream,
// ServeListener). The zero value is usable.
type StreamOptions struct {
	// Tick advances an idle stream's clock this often in wall time so
	// periods keep closing without traffic; 0 closes periods from
	// stream time only.
	Tick time.Duration
	// Ring is the per-stream ring capacity in requests (rounded up to a
	// power of two; default ringDefaultCap). The connection goroutine
	// blocks when the ring is full — backpressure instead of unbounded
	// buffering.
	Ring int
	// Block is the drain's maximum ingest block (default
	// ringDefaultBlock) and the decode batch size.
	Block int
	// Logf receives stream lifecycle notices (replay skips, per-tick and
	// per-connection errors); nil discards them.
	Logf func(format string, args ...any)
}

func (o StreamOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ServeStream pumps one access stream into a shard through the batched
// ingest pipeline: the calling goroutine decodes requests in blocks
// (trace.ReadBatchFrom) and pushes them into the shard's ring; the
// ring's drain goroutine lands whole blocks under one lock acquisition
// each (Shard.IngestBatch). Decisions are bit-identical to unbuffered
// per-request ingest — only the locking cadence changes.
//
// Streams replay from their origin, so a restored shard's
// already-consumed prefix is skipped. The idle-clock tick and the
// stream-lag gauge advance only past requests the drain has actually
// ingested, never past records still buffered in the ring.
func (s *Server) ServeStream(sh *Shard, st trace.Stream, opt StreamOptions) error {
	skip := sh.Consumed()
	if skip > 0 {
		opt.logf("disk=%s skipping %d replayed requests", sh.Name(), skip)
	}
	clock := &idleClock{sh: sh}
	start := time.Now()
	ing := newIngestor(sh, opt.Ring, opt.Block, func(last trace.Request, n int) {
		clock.advanceTo(last.Time)
		s.ObserveLag(time.Since(start) - time.Duration(float64(last.Time)*float64(time.Second)))
	})
	sh.ring.Store(ing)
	defer sh.ring.CompareAndSwap(ing, nil)
	if opt.Tick > 0 {
		stop := clock.run(opt.Tick, opt.logf)
		defer stop()
	}

	block := opt.Block
	if block <= 0 {
		block = ringDefaultBlock
	}
	buf := make([]trace.Request, block)
	var n int64
	var streamErr error
decode:
	for {
		m, err := trace.ReadBatchFrom(st, buf)
		for i := 0; i < m; i++ {
			n++
			if n <= skip {
				continue
			}
			if perr := ing.Push(buf[i]); perr != nil {
				streamErr = fmt.Errorf("disk %s: %w", sh.Name(), perr)
				break decode
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			streamErr = fmt.Errorf("disk %s: stream: %w", sh.Name(), err)
			break
		}
	}
	if cerr := ing.Close(); cerr != nil && streamErr == nil {
		streamErr = fmt.Errorf("disk %s: %w", sh.Name(), cerr)
	}
	if streamErr != nil {
		return streamErr
	}
	if d := st.Header().Duration; d > 0 {
		if err := sh.FinishTo(d); err != nil {
			return fmt.Errorf("disk %s: %w", sh.Name(), err)
		}
	}
	return nil
}

// ServeListener accepts one stream per connection: a "disk <name>\n"
// preamble, then a binary or text trace, pumped through ServeStream.
// Returns nil when the listener is closed; per-connection errors go to
// opt.Logf. Blocks until every accepted connection has drained.
func (s *Server) ServeListener(ln net.Listener, opt StreamOptions) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := s.serveConn(conn, opt); err != nil {
				opt.logf("%s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// serveConn reads one connection's preamble and pumps its stream.
func (s *Server) serveConn(conn net.Conn, opt StreamOptions) error {
	rd := bufio.NewReader(conn)
	name, err := readPreamble(rd)
	if err != nil {
		return err
	}
	sh, err := s.Shard(name)
	if err != nil {
		return err
	}
	st, err := trace.SniffStream(rd)
	if err != nil {
		return fmt.Errorf("disk %s: %w", name, err)
	}
	return s.ServeStream(sh, st, opt)
}

// maxPreamble bounds the "disk <name>" line a connection opens with, so
// a peer that never sends a newline cannot grow the read buffer.
const maxPreamble = 256

// readPreamble reads the "disk <name>\n" line and returns the name.
// The read stops at rd's buffer size; bytes after the newline stay
// buffered in rd for the trace.
func readPreamble(rd *bufio.Reader) (string, error) {
	line, err := rd.ReadSlice('\n')
	if len(line) > maxPreamble || err == bufio.ErrBufferFull {
		return "", fmt.Errorf("preamble longer than %d bytes", maxPreamble)
	}
	if err != nil {
		return "", fmt.Errorf("reading preamble: %w", err)
	}
	text := strings.TrimSpace(string(line))
	name, ok := strings.CutPrefix(text, "disk ")
	if !ok || name == "" {
		return "", fmt.Errorf("bad preamble %q, want \"disk <name>\"", text)
	}
	return name, nil
}

// idleClock maps wall ticks onto a shard's stream clock so decisions
// keep flowing when the stream goes quiet: each tick advances the
// clock by the tick's wall length and closes any crossed periods.
// Ingested traffic snaps the clock forward to the newest drained
// request time (never past records still buffered in the ring).
type idleClock struct {
	sh *Shard

	mu sync.Mutex
	t  simtime.Seconds
}

func (c *idleClock) advanceTo(t simtime.Seconds) {
	c.mu.Lock()
	if t > c.t {
		c.t = t
	}
	c.mu.Unlock()
}

func (c *idleClock) run(tick time.Duration, logf func(string, ...any)) (stop func()) {
	done := make(chan struct{})
	ticker := time.NewTicker(tick)
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				c.mu.Lock()
				c.t += simtime.Seconds(tick.Seconds())
				t := c.t
				c.mu.Unlock()
				if err := c.sh.FinishTo(t); err != nil {
					if logf != nil {
						logf("disk %s: tick: %v", c.sh.Name(), err)
					}
					return
				}
			}
		}
	}()
	return func() {
		ticker.Stop()
		close(done)
	}
}
