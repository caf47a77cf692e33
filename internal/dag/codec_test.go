package dag

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
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
		if !sameFloat(w.Meta.TrainAcc, g.Meta.TrainAcc) || !sameFloat(w.Meta.TestAcc, g.Meta.TestAcc) || w.Meta.Poisoned != g.Meta.Poisoned {
			t.Fatalf("tx %d meta mismatch: %+v vs %+v", i, w.Meta, g.Meta)
		}
		if len(w.Params) != len(g.Params) {
			t.Fatalf("tx %d param count mismatch", i)
		}
		for j := range w.Params {
			if !sameFloat(w.Params[j], g.Params[j]) {
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

// sameFloat reports whether a and b are equal or both NaN.
func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

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

// A second transaction that approves itself or a later one is rejected: the
// stream is built through the record walker, so it stays a valid stream in
// every other respect whatever the record layout.
func TestReadDAGRejectsForwardParents(t *testing.T) {
	for _, parent := range []ID{1, 2} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		count := uint32(3)
		enc.header(Magic, "", &count)
		for _, tx := range []*Transaction{
			{ID: 0, Issuer: GenesisIssuer},
			{ID: 1, Issuer: 1, Parents: []ID{parent}},
			{ID: 2, Issuer: 2, Parents: []ID{0}},
		} {
			enc.record(tx, &tx.Params)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		_, err := ReadDAG(&buf)
		if err == nil || !strings.Contains(err.Error(), "does not precede") {
			t.Fatalf("tx 1 approving %d: %v, want a parent that does not precede its child", parent, err)
		}
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

// TestWriteToStreamsInChunks: a snapshot much larger than codecChunk reaches
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
	count := NewCounter()
	count.record(d.MustGet(1), &d.MustGet(1).Params)
	count.Flush()
	record := int(count.Written())
	for i, c := range w.chunks[:len(w.chunks)-1] {
		if c < codecChunk || c >= codecChunk+record {
			t.Fatalf("write %d carries %d bytes, want [%d, %d)", i, c, codecChunk, codecChunk+record)
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

// TestRecordWalksEveryField: a record is written out field by field, so a
// field added to Transaction (or to Meta) and left out of the record layout
// would come back from a snapshot as zero. Every field is set to a distinct
// non-zero value, with two parents: decoding what the writer wrote must give
// the transaction back, the counting pass must agree with the writer, and
// every proper prefix of the record must fail to decode.
func TestRecordWalksEveryField(t *testing.T) {
	var tx Transaction
	next := 0
	fillFields(reflect.ValueOf(&tx).Elem(), &next)
	tx.ID = 7 // parents must precede it
	for i := range tx.Parents {
		tx.Parents[i] = ID(3 + i)
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.record(&tx, &tx.Params)
	enc.Flush()
	count := NewCounter()
	count.record(&tx, &tx.Params)
	count.Flush()
	if enc.Err() != nil || enc.Written() != int64(buf.Len()) || count.Written() != enc.Written() {
		t.Fatalf("wrote %d bytes (%d reported, %v), counted %d", buf.Len(), enc.Written(), enc.Err(), count.Written())
	}
	decode := func(b []byte) (*Transaction, error) {
		got := &Transaction{ID: tx.ID}
		dec := NewDecoder(bufio.NewReader(bytes.NewReader(b)))
		dec.record(got, &got.Params)
		return got, dec.Err()
	}
	got, err := decode(buf.Bytes())
	if err != nil || !reflect.DeepEqual(*got, tx) {
		t.Fatalf("decoded %+v (%v), want %+v", *got, err, tx)
	}
	for n := 0; n < buf.Len(); n++ {
		if _, err := decode(buf.Bytes()[:n]); err == nil {
			t.Fatalf("the record cut to %d of %d bytes decoded", n, buf.Len())
		}
	}
}

// fillFields sets every settable field under v to a distinct non-zero value,
// every slice to two elements.
func fillFields(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillFields(f, next)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillFields(v.Index(i), next)
		}
	case reflect.Int:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic(fmt.Sprintf("fillFields: no value for a %s", v.Type()))
	}
}

// FuzzReadDAG: arbitrary bytes never panic ReadDAG, and whatever decodes
// re-encodes to a stream that decodes to an equal DAG. The bytes themselves
// may differ: the reader accepts varints that are not minimal.
func FuzzReadDAG(f *testing.F) {
	var golden, compacted bytes.Buffer
	if _, err := goldenTangle().WriteTo(&golden); err != nil {
		f.Fatal(err)
	}
	d := goldenTangle()
	if err := d.SetCompaction(goldenCompaction(f.TempDir())); err != nil {
		f.Fatal(err)
	}
	if _, err := d.CompactTo(9); err != nil {
		f.Fatal(err)
	}
	if _, err := d.WriteTo(&compacted); err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{golden.Bytes(), compacted.Bytes()} {
		f.Add(b)
		for _, cut := range []int{6, 8, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("bounded: the seeds are a few kilobytes")
		}
		d, err := ReadDAG(bytes.NewReader(data))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("ReadDAG returned an empty error")
			}
			return
		}
		assertEqualDAGs(t, d, roundTrip(t, d))
	})
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
	d := New(make([]float64, 3*codecChunk/8))
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
