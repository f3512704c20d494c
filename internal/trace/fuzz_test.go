package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// headerOnly is a binary trace header that claims count records and
// carries none.
func headerOnly(count uint64) []byte {
	b := append([]byte(nil), binaryMagic...)
	b = binary.AppendUvarint(b, 0)   // empty name
	b = binary.AppendUvarint(b, 512) // block size
	return binary.AppendUvarint(b, count)
}

// TestDecodeBinaryBoundsPrealloc pins that DecodeBinary does not trust the
// header's record count for its allocation: a 12-byte input claiming 1<<22
// records fails after allocating well under 1 MiB, not 128 MiB.
func TestDecodeBinaryBoundsPrealloc(t *testing.T) {
	in := headerOnly(1 << 22)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only input accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("decoding a %d-byte input allocated %d bytes", len(in), grew)
	}
}

// FuzzTraceDecode feeds hostile bytes to both trace decoders: each must
// either fail or return a valid trace that round-trips through its own
// encoder to an equal trace.
func FuzzTraceDecode(f *testing.F) {
	var text, bin bytes.Buffer
	if err := Encode(&text, testTrace()); err != nil {
		f.Fatal(err)
	}
	if err := EncodeBinary(&bin, testTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add(bin.Bytes())
	f.Add(headerOnly(1 << 22))
	f.Add([]byte("# comment\ntrace t blocksize=512\n0 r 1 0 512\n10 w 1 512 512\n20 d 1 0 1024\n"))
	codecs := []struct {
		name string
		dec  func(io.Reader) (*Trace, error)
		enc  func(io.Writer, *Trace) error
	}{{"text", Decode, Encode}, {"binary", DecodeBinary, EncodeBinary}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			tr, err := c.dec(bytes.NewReader(data))
			if err != nil {
				continue
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: decoded an invalid trace: %v", c.name, err)
			}
			var buf bytes.Buffer
			if err := c.enc(&buf, tr); err != nil {
				t.Fatalf("%s: re-encoding: %v", c.name, err)
			}
			back, err := c.dec(&buf)
			if err != nil {
				t.Fatalf("%s: decoding the re-encoded trace: %v", c.name, err)
			}
			if !reflect.DeepEqual(tr, back) {
				t.Fatalf("%s: round trip changed the trace:\n%+v\n%+v", c.name, tr, back)
			}
		}
	})
}
