package trace

import (
	"bytes"
	"math"
	"testing"
)

// requireValidRanges fails unless every request a decoder accepted names
// an addressable page range.
func requireValidRanges(t *testing.T, tr *Trace) {
	t.Helper()
	for i, r := range tr.Requests {
		if !r.ValidRange() {
			t.Fatalf("decoder accepted request %d with page range [%d,+%d)", i, r.FirstPage, r.Pages)
		}
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary decoder: it must
// never panic, and anything it accepts must re-encode losslessly.
func FuzzReadBinary(f *testing.F) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("JPMT"))
	f.Add([]byte("JPMT\x01"))
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a trace"))
	// Truncated headers: a valid stream cut inside the magic, inside the
	// header varints, and inside the first request record.
	f.Add(buf.Bytes()[:2])
	f.Add(buf.Bytes()[:6])
	f.Add(buf.Bytes()[:10])
	f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	// A zero-length request: representable by the codec (pages=0 is just
	// a varint), rejected by Validate.
	zl := sampleTrace()
	zl.Requests[1].Pages = 0
	zl.Requests[1].Bytes = 0
	var zbuf bytes.Buffer
	if err := WriteBinary(&zbuf, zl); err != nil {
		f.Fatal(err)
	}
	f.Add(zbuf.Bytes())
	// Page fields no valid range has: a first page of 2^64-5 (negative
	// as int64), and a range ending past int64.
	neg := sampleTrace()
	neg.Requests[1].FirstPage = -5
	var nbuf bytes.Buffer
	if err := WriteBinary(&nbuf, neg); err != nil {
		f.Fatal(err)
	}
	f.Add(nbuf.Bytes())
	f.Add(rawBinary([][5]uint64{{1, 0, math.MaxInt64 - 1, 2, 4096}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		requireValidRanges(t, got)
		// Accepted input must round-trip through the encoder. In
		// particular the delta-time decoding is monotone by construction,
		// so re-encoding can never hit the out-of-order error.
		var out bytes.Buffer
		if err := WriteBinary(&out, got); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if len(again.Requests) != len(got.Requests) {
			t.Fatalf("round trip changed request count: %d vs %d",
				len(again.Requests), len(got.Requests))
		}
		// Validate must agree with itself across the round trip: the
		// codec is lossless for everything Validate inspects.
		if (got.Validate() == nil) != (again.Validate() == nil) {
			t.Fatalf("round trip changed validity: %v vs %v", got.Validate(), again.Validate())
		}
	})
}

// FuzzReadText is the same property for the text codec, plus the
// cross-codec consistency check: the text format stores absolute times
// and so can represent out-of-order traces the delta-encoded binary
// format cannot — Validate must reject exactly those, never leaving a
// "valid" trace the binary codec refuses to write.
func FuzzReadText(f *testing.F) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# jointpm trace pagesize=4096 datasetbytes=1 datasetpages=4 files=1 duration_us=1\n1 0 0 1 10\n")
	f.Add("")
	f.Add("1 2 3 4 5")
	// Truncated header.
	f.Add("# jointpm trace pagesize=4096 dataset")
	// Out-of-order timestamps: text-representable, binary-unrepresentable.
	f.Add("# jointpm trace pagesize=4096 datasetbytes=16384 datasetpages=4 files=1 duration_us=1000000\n" +
		"500000 0 0 1 4096\n100000 0 1 1 4096\n")
	// Zero-length request.
	f.Add("# jointpm trace pagesize=4096 datasetbytes=16384 datasetpages=4 files=1 duration_us=1000000\n" +
		"100 0 0 0 0\n")
	// Invalid page ranges: a negative first page, a negative page count,
	// a count beyond int32 and a range ending past int64.
	for _, rec := range []string{"100 0 -1 1 4096", "100 0 0 -1 4096", "100 0 0 2147483648 4096", "100 0 9223372036854775807 1 4096"} {
		f.Add("# jointpm trace pagesize=4096 datasetbytes=16384 datasetpages=4 files=1 duration_us=1000000\n" + rec + "\n")
	}

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadText(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		requireValidRanges(t, got)
		var out bytes.Buffer
		if err := WriteText(&out, got); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		// Cross-codec consistency: a trace Validate accepts is
		// time-ordered and must be expressible in the binary format; a
		// trace the binary codec refuses (out-of-order) must already be
		// rejected by Validate.
		var bin bytes.Buffer
		binErr := WriteBinary(&bin, got)
		if valErr := got.Validate(); valErr == nil && binErr != nil {
			t.Fatalf("Validate accepted a trace the binary codec cannot represent: %v", binErr)
		}
		if binErr == nil && got.Validate() == nil {
			if _, err := ReadBinary(&bin); err != nil {
				t.Fatalf("valid trace failed the binary round trip: %v", err)
			}
		}
	})
}
