package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"jointpm/internal/simtime"
)

// Stream is an incremental trace source: the metadata header up front,
// then one request per Next call, io.EOF after the last. It is what the
// long-running daemon ingests — a stream never needs the whole trace in
// memory, and Next returns requests as their bytes arrive, so a live
// socket feed decodes with no buffering beyond one record.
//
// Both stream readers are strict supersets of their batch counterparts:
// ReadBinary and ReadText are implemented on top of them, so a malformed
// input is accepted or rejected identically whether it is read in batch
// or streamed (the differential test in stream_test.go holds this over
// the fuzz corpus).
type Stream interface {
	// Header returns the trace metadata (Requests is nil).
	Header() Trace
	// Next returns the next request, io.EOF at end of stream, or the
	// decode error. Errors are sticky: once Next fails it keeps failing.
	Next() (Request, error)
}

// StreamReader incrementally decodes the binary trace format.
type StreamReader struct {
	br    *bufio.Reader
	hdr   Trace
	count uint64
	read  uint64
	prev  uint64
	err   error
}

// NewStreamReader parses the binary header from r and returns a reader
// that yields the trace's requests one at a time. Header errors are
// reported here, identically to ReadBinary.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, streamBufSize)
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, errors.New("trace: bad magic, not a binary trace")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	s := &StreamReader{br: br}
	getUv := func() (uint64, error) { return binary.ReadUvarint(br) }
	v, err := getUv()
	if err != nil {
		return nil, err
	}
	s.hdr.PageSize = simtime.Bytes(v)
	if v, err = getUv(); err != nil {
		return nil, err
	}
	s.hdr.DataSetBytes = simtime.Bytes(v)
	if v, err = getUv(); err != nil {
		return nil, err
	}
	s.hdr.DataSetPages = int64(v)
	if v, err = getUv(); err != nil {
		return nil, err
	}
	s.hdr.Files = int32(v)
	if v, err = getUv(); err != nil {
		return nil, err
	}
	s.hdr.Duration = fromUsec(v)
	if s.count, err = getUv(); err != nil {
		return nil, err
	}
	return s, nil
}

// Header implements Stream.
func (s *StreamReader) Header() Trace { return s.hdr }

// Count returns the request count declared by the stream header.
func (s *StreamReader) Count() uint64 { return s.count }

// Next implements Stream. It returns io.EOF after the header-declared
// request count, without touching the underlying reader again. It is a
// one-record collector over ReadBatch, so the streaming and block
// decoders accept and reject inputs identically by construction.
func (s *StreamReader) Next() (Request, error) {
	var one [1]Request
	if _, err := s.ReadBatch(one[:]); err != nil {
		return Request{}, err
	}
	return one[0], nil
}

// readOne decodes one record byte-by-byte through the bufio reader: the
// slow path ReadBatch falls back to at buffer-window tails and on
// malformed input, where it re-reads the same bytes and produces the
// canonical per-field error. The caller has already checked s.err and
// the header-declared count.
func (s *StreamReader) readOne() (Request, error) {
	var req Request
	d, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.err = fmt.Errorf("trace: request %d: %w", s.read, err)
		return Request{}, s.err
	}
	if d > maxUsec-s.prev {
		s.err = fmt.Errorf("trace: request %d: time past %d us", s.read, uint64(maxUsec))
		return Request{}, s.err
	}
	s.prev += d
	req.Time = fromUsec(s.prev)
	// A bare io.EOF inside a record means the stream was truncated; it
	// must not be confused with the clean end-of-stream EOF that Next
	// returns once the header-declared count is exhausted.
	midRecord := func(err error) error {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	v, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.err = midRecord(err)
		return Request{}, s.err
	}
	req.File = int32(v)
	if v, err = binary.ReadUvarint(s.br); err != nil {
		s.err = midRecord(err)
		return Request{}, s.err
	}
	first := v
	if v, err = binary.ReadUvarint(s.br); err != nil {
		s.err = midRecord(err)
		return Request{}, s.err
	}
	if !rangeOK(first, v) {
		s.err = fmt.Errorf("trace: request %d: invalid page range: first page %d, %d pages", s.read, first, v)
		return Request{}, s.err
	}
	req.FirstPage = int64(first)
	req.Pages = int32(v)
	if v, err = binary.ReadUvarint(s.br); err != nil {
		s.err = midRecord(err)
		return Request{}, s.err
	}
	req.Bytes = simtime.Bytes(v)
	s.read++
	return req, nil
}

// maxPrealloc caps the request-slice capacity ReadBinary reserves from
// the (attacker-controlled) header count, so a hostile count cannot
// allocate unboundedly before the decode fails.
const maxPrealloc = 1 << 16

// TextStreamReader incrementally decodes the text trace format.
type TextStreamReader struct {
	sc   *bufio.Scanner
	hdr  Trace
	line int
	read int // requests returned so far
	err  error
}

// NewTextStreamReader parses lines from r up to and including the header
// and returns a reader that yields requests one at a time. Header errors
// (malformed header, data before header, missing header on an empty
// stream) are reported here, identically to ReadText.
func NewTextStreamReader(r io.Reader) (*TextStreamReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	s := &TextStreamReader{sc: sc}
	for sc.Scan() {
		s.line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if strings.Contains(text, "pagesize=") {
				if err := parseTextHeader(text, &s.hdr); err != nil {
					return nil, fmt.Errorf("trace: line %d: %w", s.line, err)
				}
				return s, nil
			}
			continue
		}
		return nil, fmt.Errorf("trace: line %d: data before header", s.line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("trace: missing header line")
}

// Header implements Stream.
func (s *TextStreamReader) Header() Trace { return s.hdr }

// Next implements Stream.
func (s *TextStreamReader) Next() (Request, error) {
	if s.err != nil {
		return Request{}, s.err
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 5 {
			s.err = fmt.Errorf("trace: line %d: want 5 fields, got %d", s.line, len(f))
			return Request{}, s.err
		}
		var vals [5]int64
		for i, fieldText := range f {
			v, err := strconv.ParseInt(fieldText, 10, 64)
			if err != nil {
				s.err = fmt.Errorf("trace: line %d field %d: %w", s.line, i, err)
				return Request{}, s.err
			}
			vals[i] = v
		}
		if vals[2] < 0 || vals[3] < 0 || !rangeOK(uint64(vals[2]), uint64(vals[3])) {
			s.err = fmt.Errorf("trace: line %d: request %d: invalid page range: first page %d, %d pages",
				s.line, s.read, vals[2], vals[3])
			return Request{}, s.err
		}
		s.read++
		return Request{
			Time:      fromUsec(uint64(vals[0])),
			File:      int32(vals[1]),
			FirstPage: vals[2],
			Pages:     int32(vals[3]),
			Bytes:     simtime.Bytes(vals[4]),
		}, nil
	}
	if err := s.sc.Err(); err != nil {
		s.err = err
	} else {
		s.err = io.EOF
	}
	return Request{}, s.err
}

// SniffStream opens a Stream over r, detecting the codec from the first
// bytes: the binary magic selects the binary reader, anything else the
// text reader. This is how the daemon accepts either format on one
// socket.
func SniffStream(r io.Reader) (Stream, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, streamBufSize)
	}
	head, err := br.Peek(len(binaryMagic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("trace: reading stream preamble: %w", err)
	}
	if bytes.HasPrefix(head, []byte(binaryMagic)) {
		return NewStreamReader(br)
	}
	return NewTextStreamReader(br)
}
