package serve

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// endless is a reader that never sends a newline.
type endless struct{ n int64 }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	e.n += int64(len(p))
	return len(p), nil
}

// TestPreambleBounded: a peer that never ends its preamble line is
// refused after a bounded read instead of growing the buffer.
func TestPreambleBounded(t *testing.T) {
	src := &endless{}
	if _, err := readPreamble(bufio.NewReader(src)); err == nil {
		t.Fatal("endless preamble accepted")
	}
	if src.n > 64<<10 {
		t.Fatalf("read %d bytes before refusing the preamble", src.n)
	}
	long := "disk " + strings.Repeat("x", maxPreamble) + "\n"
	if _, err := readPreamble(bufio.NewReader(strings.NewReader(long))); err == nil {
		t.Fatalf("%d-byte preamble accepted", len(long))
	}
}

// FuzzPreamble holds the preamble parser to its contract on arbitrary
// connection bytes: it never panics, an accepted name is non-empty and
// re-parses from its canonical "disk <name>" line, and exactly the bytes
// after the first newline are left for the trace.
func FuzzPreamble(f *testing.F) {
	f.Add([]byte("disk d0\n"))
	f.Add([]byte("disk sda\r\nJPMT\x01rest"))
	f.Add([]byte("  disk   spaced  \n"))
	f.Add([]byte("disk \n"))
	f.Add([]byte("disc d0\n"))
	f.Add([]byte("disk d0"))
	f.Add([]byte(strings.Repeat("y", 300) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bufio.NewReader(bytes.NewReader(data))
		name, err := readPreamble(rd)
		if err != nil {
			return
		}
		if name == "" {
			t.Fatal("accepted an empty disk name")
		}
		again, err := readPreamble(bufio.NewReader(strings.NewReader("disk " + name + "\n")))
		if err != nil || again != name {
			t.Fatalf("name %q re-parses as %q (%v)", name, again, err)
		}
		rest, _ := io.ReadAll(rd)
		if want := data[bytes.IndexByte(data, '\n')+1:]; !bytes.Equal(rest, want) {
			t.Fatalf("left %q for the trace, want %q", rest, want)
		}
	})
}
