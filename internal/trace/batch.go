package trace

import (
	"encoding/binary"
	"io"

	"jointpm/internal/simtime"
)

// Block decode for the binary stream. ReadBatch is the throughput entry
// point of the codec: it decodes whole records straight out of the
// bufio window with binary.Uvarint, committing reader position once per
// record instead of once per field, so the per-byte function calls and
// bounds checks of binary.ReadUvarint are paid only at window tails and
// on malformed input. Next is a one-record collector over ReadBatch, so
// both paths accept and reject inputs identically — the differential
// and fuzz guarantees of the codec split carry over unchanged.

// streamBufSize is the bufio window NewStreamReader and SniffStream
// allocate when the caller did not bring its own reader. Sized so the
// fast path decodes thousands of records per refill; callers that care
// about per-record latency can pass a smaller *bufio.Reader.
const streamBufSize = 1 << 16

// recordMaxLen bounds one encoded request: five uvarints of at most
// binary.MaxVarintLen64 bytes each. While at least this many bytes are
// buffered, a record decode cannot run out of window mid-field.
const recordMaxLen = 5 * binary.MaxVarintLen64

// ReadBatch fills dst with the next records of the stream and returns
// how many it decoded. It returns n > 0 with a nil error when it made
// progress, and n == 0 with io.EOF once the header-declared count is
// exhausted or with the decode error. Errors are sticky, exactly as for
// Next: a call that returns records before hitting an error reports the
// error on the following call.
//
// ReadBatch blocks only while it has nothing to deliver: once at least
// one record is decoded it drains whatever whole records are already
// buffered and returns, so a live trickle-fed stream (a socket between
// bursts) never has delivered-but-unreturned records held hostage
// behind a blocking read.
func (s *StreamReader) ReadBatch(dst []Request) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := 0
	for n < len(dst) {
		if s.read >= s.count {
			if n > 0 {
				return n, nil
			}
			s.err = io.EOF
			return 0, s.err
		}
		if s.br.Buffered() >= recordMaxLen {
			if m := s.decodeBlock(dst[n:]); m > 0 {
				n += m
				continue
			}
		} else if n > 0 {
			// Window tail with records in hand: drain the whole records
			// still buffered, then hand back what we have rather than
			// block. The next call resumes at the partial record.
			if m := s.decodeTail(dst[n:]); m > 0 {
				n += m
				continue
			}
			return n, nil
		}
		// Nothing delivered yet (or a malformed varint inside a full
		// window): decode one record byte-by-byte. ReadUvarint refills
		// the window as it drains, so the next iteration is back on the
		// fast path, and on malformed input it re-reads the same bytes
		// and produces the canonical per-field error.
		req, err := s.readOne()
		if err != nil {
			if n > 0 {
				return n, nil // sticky: the next call reports err
			}
			return 0, err
		}
		dst[n] = req
		n++
	}
	return n, nil
}

// decodeBlock decodes records wholly contained in the buffered window
// into dst and discards their bytes, stopping at the first record that
// might straddle the window edge, fails to parse, or carries a time or
// page range out of bounds (the slow path re-reads and diagnoses it).
// Field layout and delta-time accumulation mirror readOne exactly.
func (s *StreamReader) decodeBlock(dst []Request) int {
	buf, _ := s.br.Peek(s.br.Buffered())
	n, i := 0, 0
	// Each uv call below sees at least MaxVarintLen64 bytes (the window
	// guard), so k == 0 ("buffer too small") is impossible; k < 0 is a
	// >64-bit varint, which ReadUvarint rejects identically. Most fields
	// encode in one byte, so that case skips binary.Uvarint entirely.
	uv := func(p []byte) (uint64, int) {
		if b := p[0]; b < 0x80 {
			return uint64(b), 1
		}
		return binary.Uvarint(p)
	}
	for n < len(dst) && s.read < s.count && len(buf)-i >= recordMaxLen {
		d, k := uv(buf[i:])
		if k <= 0 {
			break
		}
		j := i + k
		var f [4]uint64
		ok := true
		for fi := 0; fi < 4; fi++ {
			v, k := uv(buf[j:])
			if k <= 0 {
				ok = false
				break
			}
			f[fi] = v
			j += k
		}
		if !ok || d > maxUsec-s.prev || !rangeOK(f[1], f[2]) {
			break
		}
		s.prev += d
		dst[n] = Request{
			Time:      fromUsec(s.prev),
			File:      int32(f[0]),
			FirstPage: int64(f[1]),
			Pages:     int32(f[2]),
			Bytes:     simtime.Bytes(f[3]),
		}
		s.read++
		n++
		i = j
	}
	if i > 0 {
		s.br.Discard(i)
	}
	return n
}

// decodeTail decodes whole records out of a buffered window smaller
// than recordMaxLen — the non-blocking complement of decodeBlock for
// stream tails. binary.Uvarint reports an incomplete varint as k == 0;
// the decode stops there (or at a malformed k < 0 field, or at a time or
// page range out of bounds) without consuming the partial record,
// leaving it for readOne to finish or diagnose, so acceptance and errors
// stay identical to the per-record path.
func (s *StreamReader) decodeTail(dst []Request) int {
	avail := s.br.Buffered()
	if avail == 0 {
		return 0
	}
	buf, _ := s.br.Peek(avail)
	n, i := 0, 0
	for n < len(dst) && s.read < s.count {
		j := i
		var f [5]uint64
		ok := true
		for fi := 0; fi < 5; fi++ {
			v, k := binary.Uvarint(buf[j:])
			if k <= 0 {
				ok = false
				break
			}
			f[fi] = v
			j += k
		}
		if !ok || f[0] > maxUsec-s.prev || !rangeOK(f[2], f[3]) {
			break
		}
		s.prev += f[0]
		dst[n] = Request{
			Time:      fromUsec(s.prev),
			File:      int32(f[1]),
			FirstPage: int64(f[2]),
			Pages:     int32(f[3]),
			Bytes:     simtime.Bytes(f[4]),
		}
		s.read++
		n++
		i = j
	}
	if i > 0 {
		s.br.Discard(i)
	}
	return n
}

// BatchStream is a Stream with a native block decoder.
type BatchStream interface {
	Stream
	ReadBatch(dst []Request) (int, error)
}

// ReadBatchFrom fills dst from any Stream: one ReadBatch call when the
// stream decodes blocks natively, a single Next call otherwise (the
// text reader cannot probe for buffered input, so asking it for a full
// block would hold early records hostage behind a blocking read on a
// live stream). The contract matches StreamReader.ReadBatch — n > 0
// with a nil error, or n == 0 with the stream's sticky error — so
// ingest loops are written once against this helper.
func ReadBatchFrom(s Stream, dst []Request) (int, error) {
	if bs, ok := s.(BatchStream); ok {
		return bs.ReadBatch(dst)
	}
	if len(dst) == 0 {
		return 0, nil
	}
	req, err := s.Next()
	if err != nil {
		return 0, err
	}
	dst[0] = req
	return 1, nil
}
