package dag

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"github.com/specdag/specdag/internal/xrand"
)

// roundTrip serializes and re-reads a DAG, failing the test on error.
func roundTrip(t *testing.T, d *DAG) *DAG {
	t.Helper()
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := ReadDAG(&buf)
	if err != nil {
		t.Fatalf("ReadDAG: %v", err)
	}
	return got
}

// assertEqualDAGs compares every transaction of two DAGs.
func assertEqualDAGs(t *testing.T, want, got *DAG) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("size %d, want %d", got.Size(), want.Size())
	}
	wantTxs, gotTxs := want.All(), got.All()
	for i := range wantTxs {
		w, g := wantTxs[i], gotTxs[i]
		if w.ID != g.ID || w.Issuer != g.Issuer || w.Round != g.Round {
			t.Fatalf("tx %d header mismatch: %+v vs %+v", i, w, g)
		}
		if len(w.Parents) != len(g.Parents) {
			t.Fatalf("tx %d parent count mismatch", i)
		}
		for j := range w.Parents {
			if w.Parents[j] != g.Parents[j] {
				t.Fatalf("tx %d parent %d mismatch", i, j)
			}
		}
		if w.Meta != g.Meta {
			t.Fatalf("tx %d meta mismatch: %+v vs %+v", i, w.Meta, g.Meta)
		}
		if len(w.Params) != len(g.Params) {
			t.Fatalf("tx %d param count mismatch", i)
		}
		for j := range w.Params {
			if w.Params[j] != g.Params[j] && !(math.IsNaN(w.Params[j]) && math.IsNaN(g.Params[j])) {
				t.Fatalf("tx %d param %d mismatch: %v vs %v", i, j, w.Params[j], g.Params[j])
			}
		}
	}
	// Derived state must also match.
	wantTips, gotTips := want.Tips(), got.Tips()
	if len(wantTips) != len(gotTips) {
		t.Fatalf("tips mismatch: %v vs %v", wantTips, gotTips)
	}
	for i := range wantTips {
		if wantTips[i] != gotTips[i] {
			t.Fatalf("tips mismatch: %v vs %v", wantTips, gotTips)
		}
	}
}

func TestCodecRoundTripSmall(t *testing.T) {
	d := New([]float64{0.25, -1, math.Pi})
	a, _ := d.Add(3, 0, []ID{0, 0}, []float64{1, 2}, Meta{TrainAcc: 0.5, TestAcc: 0.75})
	d.Add(7, 1, []ID{a.ID}, []float64{3}, Meta{Poisoned: true})
	assertEqualDAGs(t, d, roundTrip(t, d))
}

func TestCodecRoundTripGenesisOnly(t *testing.T) {
	d := New(nil)
	assertEqualDAGs(t, d, roundTrip(t, d))
}

func TestCodecRoundTripSpecialFloats(t *testing.T) {
	d := New([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0})
	assertEqualDAGs(t, d, roundTrip(t, d))
}

func TestCodecRoundTripRandomQuick(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := xrand.New(seed)
		d := buildRandom(rng, int(size%60)+1)
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadDAG(&buf)
		if err != nil {
			return false
		}
		return got.Size() == d.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadDAGRejectsBadMagic(t *testing.T) {
	if _, err := ReadDAG(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadDAGRejectsEmpty(t *testing.T) {
	if _, err := ReadDAG(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadDAGRejectsTruncation(t *testing.T) {
	rng := xrand.New(5)
	d := buildRandom(rng, 20)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for _, cut := range []int{5, 9, len(full) / 2, len(full) - 1} {
		if _, err := ReadDAG(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", cut, len(full))
		}
	}
}

func TestReadDAGRejectsCorruptHeader(t *testing.T) {
	d := New([]float64{1})
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Claim an absurd transaction count.
	corrupt := append([]byte{}, data...)
	corrupt[4], corrupt[5], corrupt[6], corrupt[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadDAG(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("absurd tx count accepted")
	}
}

func TestReadDAGRejectsForwardParents(t *testing.T) {
	// Hand-craft a snapshot whose second transaction references itself.
	d := New(nil)
	d.Add(1, 0, []ID{0}, nil, Meta{})
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The parent uvarint of tx 1 is the byte right after its parent count;
	// find it by re-encoding: tx1 begins after genesis. Simpler: flip the
	// last occurrence of 0x00 parent byte to 0x01 (self-reference).
	// Locate: tx1 layout: id=0x01, issuer=0x02(zigzag 1), round=0x00,
	// parentCount=0x01, parent=0x00.
	idx := bytes.Index(data[8:], []byte{0x01, 0x02, 0x00, 0x01, 0x00})
	if idx < 0 {
		t.Skip("layout changed; self-reference corruption not applicable")
	}
	data[8+idx+4] = 0x01 // parent = 1 == own id
	if _, err := ReadDAG(bytes.NewReader(data)); err == nil {
		t.Fatal("forward/self parent accepted")
	}
}

func TestWriteToPropagatesWriterErrors(t *testing.T) {
	d := New([]float64{1, 2, 3})
	if _, err := d.WriteTo(failingWriter{}); err == nil {
		t.Fatal("writer error swallowed")
	}
}

// chunkRecorder is a writer that remembers how the stream was cut up.
type chunkRecorder struct {
	bytes.Buffer
	chunks []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.chunks = append(c.chunks, len(p))
	return c.Buffer.Write(p)
}

// TestWriteToStreamsInChunks: a snapshot much larger than recordChunk reaches
// the writer in pieces of about that size — at least a chunk, less than a
// chunk plus one record, the last one whatever is left — never as one buffer
// of the whole stream, and the pieces add up to the capture's Size.
func TestWriteToStreamsInChunks(t *testing.T) {
	rng := xrand.New(9)
	const dim = 3000 // a record is ~24 KB, so chunks end at different offsets within records
	d := New(rng.NormalVec(dim, 0, 1))
	for i := 1; i < 40; i++ {
		if _, err := d.Add(i%7, i, []ID{ID(i - 1), ID(i / 3)}, rng.NormalVec(dim, 0, 1), Meta{TestAcc: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	var w chunkRecorder
	n, err := d.WriteTo(&w)
	if err != nil || n != int64(w.Len()) {
		t.Fatalf("WriteTo = %d, %v; writer holds %d bytes", n, err, w.Len())
	}
	if len(w.chunks) < 10 {
		t.Fatalf("%d bytes arrived in %d writes %v", w.Len(), len(w.chunks), w.chunks)
	}
	record := recordSize(d.MustGet(1), d.MustGet(1).Params)
	for i, c := range w.chunks[:len(w.chunks)-1] {
		if c < recordChunk || c >= recordChunk+record {
			t.Fatalf("write %d carries %d bytes, want [%d, %d)", i, c, recordChunk, recordChunk+record)
		}
	}
	if size := d.Capture().Size(); w.Len() != size {
		t.Fatalf("WriteTo streamed %d bytes, the capture's Size is %d", w.Len(), size)
	}
	back, err := ReadDAG(&w.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDAGs(t, d, back)
}

// The size arithmetic behind Capture.Size against the encoders it predicts,
// at every length boundary of both varint kinds.
func TestVarintLen(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, u := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(u), len(binary.AppendUvarint(nil, u)); got != want {
				t.Errorf("uvarintLen(%d) = %d, AppendUvarint writes %d", u, got, want)
			}
			for _, x := range []int64{int64(u), -int64(u)} {
				if got, want := varintLen(x), len(binary.AppendVarint(nil, x)); got != want {
					t.Errorf("varintLen(%d) = %d, AppendVarint writes %d", x, got, want)
				}
			}
		}
	}
}

// A snapshot that is one section of a longer stream: ReadDAG reads a
// *bufio.Reader through — however small its buffer — and leaves it on the
// first byte after the last record.
func TestReadDAGLeavesBufferedReaderAtTheEnd(t *testing.T) {
	d := buildRandom(xrand.New(5), 60)
	var stream bytes.Buffer
	if _, err := d.WriteTo(&stream); err != nil {
		t.Fatal(err)
	}
	stream.WriteString("the next section")
	for _, size := range []int{16, 100, 4096, 1 << 20} {
		br := bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(stream.Bytes())), size)
		back, err := ReadDAG(br)
		if err != nil {
			t.Fatalf("buffer of %d: %v", size, err)
		}
		assertEqualDAGs(t, d, back)
		if rest, err := io.ReadAll(br); err != nil || string(rest) != "the next section" {
			t.Fatalf("buffer of %d: %q, %v is left behind the snapshot", size, rest, err)
		}
	}
}

// A failing writer fails the stream at the first flush, with the bytes that
// did arrive counted.
func TestWriteToCountsBytesBeforeTheError(t *testing.T) {
	d := New(make([]float64, 3*recordChunk/8))
	w := &limitedWriter{room: 100}
	n, err := d.WriteTo(w)
	if err != io.ErrShortWrite || n != 100 {
		t.Fatalf("WriteTo into a writer with room for 100 bytes = %d, %v", n, err)
	}
}

// limitedWriter accepts room bytes, then fails short.
type limitedWriter struct{ room int }

func (l *limitedWriter) Write(p []byte) (int, error) {
	if len(p) > l.room {
		n := l.room
		l.room = 0
		return n, io.ErrShortWrite
	}
	l.room -= len(p)
	return len(p), nil
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func BenchmarkCodecWrite(b *testing.B) {
	rng := xrand.New(1)
	d := buildRandom(rng, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteTo(io.Discard)
	}
}

func BenchmarkCodecRead(b *testing.B) {
	rng := xrand.New(2)
	d := buildRandom(rng, 200)
	var buf bytes.Buffer
	d.WriteTo(&buf)
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadDAG(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadDAG decodes what a hosted FMNIST run's checkpoint embeds: 200
// live transactions of 2 410 parameters each (3.9 MB), where the parameter
// vectors are all but a few bytes per record.
func BenchmarkReadDAG(b *testing.B) {
	rng := xrand.New(3)
	d := New(rng.NormalVec(2410, 0, 1))
	for i := 1; i < 200; i++ {
		if _, err := d.Add(i%30, i, []ID{ID(i - 1), ID(i / 2)}, rng.NormalVec(2410, 0, 1), Meta{TrainAcc: 0.5, TestAcc: 0.4}); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadDAG(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
