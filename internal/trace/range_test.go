package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// rawBinary encodes a header and records field by field, so a test can
// put on the wire values no Trace holds.
func rawBinary(recs [][5]uint64) []byte {
	var out []byte
	put := func(v uint64) { out = binary.AppendUvarint(out, v) }
	out = append(out, binaryMagic...)
	out = append(out, binaryVersion)
	for _, v := range []uint64{4096, 1 << 20, 256, 4, 10_000_000, uint64(len(recs))} {
		put(v)
	}
	for _, r := range recs {
		for _, v := range r {
			put(v)
		}
	}
	return out
}

// TestDecodersRejectInvalidPageRange: a record whose page range is not
// addressable — a first page ≥ 2^63 (negative as int64), a page count
// beyond int32, or a range end past int64 — fails the decode with an
// error naming the request index, on every binary decode path (block
// decode, window tails fed a byte at a time, one record per Next) and in
// the text codec; every record before it is delivered. The largest
// range that still fits is accepted.
func TestDecodersRejectInvalidPageRange(t *testing.T) {
	const bad = 70
	cases := []struct {
		name        string
		first, n    uint64
		wantInvalid bool
	}{
		{"first page 2^63", 1 << 63, 1, true},
		{"first page 2^64-1", math.MaxUint64, 1, true},
		{"pages 2^31", 7, 1 << 31, true},
		{"pages wrapping int32 to 1", 7, 1<<32 + 1, true},
		{"range end 2^63", math.MaxInt64, 1, true},
		{"range end past int64", math.MaxInt64 - 2, 3, true},
		{"range end exactly int64 max", math.MaxInt64 - 3, 3, false},
		{"pages int32 max", 0, math.MaxInt32, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs := make([][5]uint64, bad+5)
			for i := range recs {
				recs[i] = [5]uint64{10, 1, uint64(i % 200), 2, 4096}
			}
			recs[bad][2], recs[bad][3] = c.first, c.n
			data := rawBinary(recs)
			wantErr := fmt.Sprintf("request %d: invalid page range", bad)

			check := func(path string, got []Request, err error) {
				t.Helper()
				if !c.wantInvalid {
					if err != nil || len(got) != len(recs) {
						t.Fatalf("%s: decoded %d of %d records, err %v", path, len(got), len(recs), err)
					}
					if r := got[bad]; r.FirstPage != int64(c.first) || r.Pages != int32(c.n) || !r.ValidRange() {
						t.Fatalf("%s: record %d decoded as %+v", path, bad, r)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), wantErr) {
					t.Fatalf("%s: err %v, want %q", path, err, wantErr)
				}
				if len(got) != bad {
					t.Fatalf("%s: delivered %d records before the bad one, want %d", path, len(got), bad)
				}
			}

			sr, err := NewStreamReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := drain(sr.ReadBatch, 4096)
			check("ReadBatch", reqs, err)
			if _, berr := ReadBinary(bytes.NewReader(data)); (berr == nil) != (err == nil) {
				t.Fatalf("ReadBinary err %v, ReadBatch err %v", berr, err)
			}

			sr, err = NewStreamReader(iotest.OneByteReader(bytes.NewReader(data)))
			if err != nil {
				t.Fatal(err)
			}
			reqs, err = drain(sr.ReadBatch, 16)
			check("ReadBatch over a trickle", reqs, err)

			sr, err = NewStreamReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			reqs, err = drain(func(dst []Request) (int, error) { return ReadBatchFrom(nextOnly{sr}, dst) }, 1)
			check("Next", reqs, err)

			var text strings.Builder
			fmt.Fprintf(&text, "# jointpm trace pagesize=4096 datasetbytes=1048576 datasetpages=256 files=4 duration_us=10000000\n")
			for i, r := range recs {
				first, n := fmt.Sprint(r[2]), fmt.Sprint(r[3])
				if i == bad && r[2] > math.MaxInt64 {
					first = fmt.Sprint(int64(r[2])) // the text codec's negative first page
				}
				fmt.Fprintf(&text, "%d %d %s %s %d\n", 10*(i+1), r[1], first, n, r[4])
			}
			ts, err := NewTextStreamReader(strings.NewReader(text.String()))
			if err != nil {
				t.Fatal(err)
			}
			reqs, err = drain(func(dst []Request) (int, error) { return ReadBatchFrom(ts, dst) }, 1)
			check("text", reqs, err)
		})
	}

	// The text codec can also spell a negative page count.
	ts, err := NewTextStreamReader(strings.NewReader(
		"# jointpm trace pagesize=4096 datasetbytes=16384 datasetpages=4 files=1 duration_us=1000000\n" +
			"100 0 0 1 4096\n200 0 1 -1 4096\n"))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := drain(func(dst []Request) (int, error) { return ReadBatchFrom(ts, dst) }, 1)
	if len(reqs) != 1 || err == nil || !strings.Contains(err.Error(), "request 1: invalid page range") {
		t.Fatalf("negative text page count: %d records, err %v", len(reqs), err)
	}
}

// nextOnly hides a reader's ReadBatch, so ReadBatchFrom takes the
// one-record Next path.
type nextOnly struct{ Stream }

// drain reads batches of size n until the stream ends and returns the
// records plus the terminal error (nil at a clean end).
func drain(read func([]Request) (int, error), n int) ([]Request, error) {
	var out []Request
	buf := make([]Request, n)
	for {
		m, err := read(buf)
		out = append(out, buf[:m]...)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}
