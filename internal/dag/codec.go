package dag

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Binary snapshot format for DAGs. A deployed tangle needs a wire format to
// gossip transactions and to checkpoint state; this is a compact,
// versioned, self-validating encoding:
//
//	magic "SDG1" | u32 txCount
//	per transaction, in topological (insertion) order:
//	  uvarint ID | varint issuer | varint round
//	  u8 parentCount | uvarint parents...
//	  f64 trainAcc | f64 testAcc | u8 poisoned
//	  uvarint paramCount | f64 params...
//
// All integers are little-endian; floats are IEEE-754 bit patterns.
// Decoding validates structural invariants (sequential IDs, parents precede
// children), so a corrupted or adversarial snapshot cannot produce a cyclic
// or dangling DAG.
//
// The "SDS1" epoch spill files written by compaction (see epoch.go) are the
// same stream under their own magic — a run of consecutive records that need
// not start at genesis — so both formats go through one record encoder
// (appendRecord, behind writeRecords) and one header and record reader
// (readHeader, readTxRecord). A simulation checkpoint (SDC3/SDA3,
// internal/core) carries a whole SDG1 stream as its first section, and its
// engine state writes parameter vectors as the same raw spans (AppendFloats,
// ReadFloats).

// codecMagic identifies snapshot files and fixes the version.
var codecMagic = [4]byte{'S', 'D', 'G', '1'}

// maxSnapshotTxs bounds decoding work against adversarial headers.
const maxSnapshotTxs = 1 << 24

// MaxParams bounds a decoded parameter vector's length: a larger count is
// rejected as corrupt before anything is allocated for it.
const MaxParams = 1 << 28

// appendRecord appends one transaction record in the SDG1 layout to b, with
// params as its parameter vector — t.Params, or what a Capture pinned of it;
// the field itself is not read here. The vector, all but a few bytes of a
// record, is one span grown once and filled in place.
func appendRecord(b []byte, t *Transaction, params []float64) ([]byte, error) {
	if len(t.Parents) > 255 {
		return b, fmt.Errorf("dag: transaction %d has %d parents", t.ID, len(t.Parents))
	}
	b = binary.AppendUvarint(b, uint64(t.ID))
	b = binary.AppendVarint(b, int64(t.Issuer))
	b = binary.AppendVarint(b, int64(t.Round))
	b = append(b, byte(len(t.Parents)))
	for _, p := range t.Parents {
		b = binary.AppendUvarint(b, uint64(p))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Meta.TrainAcc))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Meta.TestAcc))
	poisoned := byte(0)
	if t.Meta.Poisoned {
		poisoned = 1
	}
	b = append(b, poisoned)
	b = binary.AppendUvarint(b, uint64(len(params)))
	return AppendFloats(b, params), nil
}

// AppendFloats appends v to b as a raw span: each float's IEEE-754 bit
// pattern, little-endian, with no length — b is grown once and filled in
// place. The checkpoint codecs (internal/core) write their parameter vectors
// this way too.
func AppendFloats(b []byte, v []float64) []byte {
	at := len(b)
	b = slices.Grow(b, 8*len(v))[:at+8*len(v)]
	for i, f := range v {
		binary.LittleEndian.PutUint64(b[at+8*i:], math.Float64bits(f))
	}
	return b
}

// ReadFloats decodes a raw span of n floats off br. The vector is decoded
// straight out of the reader's buffer, as many whole floats as it holds at a
// time, and grows only once their bytes are there — by doubling, up to
// exactly n — so a forged count allocates at most twice what the stream
// really backs. An error names the first float the input does not back.
func ReadFloats(br *bufio.Reader, n int) ([]float64, error) {
	v := make([]float64, 0, min(n, 1<<12))
	for len(v) < n {
		k := min(max(br.Buffered()/8, 1), n-len(v)) // nothing buffered: Peek refills
		win, err := br.Peek(8 * k)
		if err != nil {
			// Report the error reading that float alone would have met.
			if err == io.EOF && len(win)%8 != 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("param %d: %w", len(v)+len(win)/8, err)
		}
		if len(v)+k > cap(v) {
			v = append(make([]float64, 0, min(n, 2*cap(v))), v...)
		}
		for ; len(win) >= 8; win = win[8:] {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(win)))
		}
		br.Discard(8 * k)
	}
	return v, nil
}

// appendHeader appends a record stream's magic and count.
func appendHeader(b []byte, magic [4]byte, count int) []byte {
	return binary.LittleEndian.AppendUint32(append(b, magic[:]...), uint32(count))
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the number of bytes binary.AppendVarint writes for x.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// recordSize is the number of bytes appendRecord appends for t and params.
func recordSize(t *Transaction, params []float64) int {
	n := uvarintLen(uint64(t.ID)) + varintLen(int64(t.Issuer)) + varintLen(int64(t.Round)) + 1
	for _, p := range t.Parents {
		n += uvarintLen(uint64(p))
	}
	return n + 8 + 8 + 1 + uvarintLen(uint64(len(params))) + 8*len(params)
}

// readFloat decodes one f64 through the caller's scratch.
func readFloat(br *bufio.Reader, buf *[8]byte) (float64, error) {
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// readTxRecord decodes one transaction record, validating that its ID equals
// want and that every parent strictly precedes it.
func readTxRecord(br *bufio.Reader, want uint64) (*Transaction, error) {
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tx %d: id: %w", want, err)
	}
	if id != want {
		return nil, fmt.Errorf("tx %d: non-sequential id %d", want, id)
	}
	issuer, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("tx %d: issuer: %w", want, err)
	}
	round, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("tx %d: round: %w", want, err)
	}
	var pc [1]byte
	if _, err := io.ReadFull(br, pc[:]); err != nil {
		return nil, fmt.Errorf("tx %d: parent count: %w", want, err)
	}
	parents := make([]ID, 0, pc[0])
	for i := 0; i < int(pc[0]); i++ {
		p, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("tx %d: parent %d: %w", want, i, err)
		}
		if p >= want {
			return nil, fmt.Errorf("tx %d: parent %d does not precede child", want, p)
		}
		parents = append(parents, ID(p))
	}
	var meta Meta
	var f64 [8]byte
	if meta.TrainAcc, err = readFloat(br, &f64); err != nil {
		return nil, fmt.Errorf("tx %d: trainAcc: %w", want, err)
	}
	if meta.TestAcc, err = readFloat(br, &f64); err != nil {
		return nil, fmt.Errorf("tx %d: testAcc: %w", want, err)
	}
	var pb [1]byte
	if _, err := io.ReadFull(br, pb[:]); err != nil {
		return nil, fmt.Errorf("tx %d: poisoned flag: %w", want, err)
	}
	meta.Poisoned = pb[0] != 0
	nParams, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tx %d: param count: %w", want, err)
	}
	if nParams > MaxParams {
		return nil, fmt.Errorf("tx %d: implausible param count %d", want, nParams)
	}
	params, err := ReadFloats(br, int(nParams))
	if err != nil {
		return nil, fmt.Errorf("tx %d: %w", want, err)
	}
	return &Transaction{
		ID:      ID(id),
		Issuer:  int(issuer),
		Round:   int(round),
		Parents: parents,
		Params:  params,
		Meta:    meta,
	}, nil
}

// recordChunk is how much of a record stream writeRecords encodes before it
// hands the bytes to the writer.
const recordChunk = 64 << 10

// writeRecords streams one record stream — magic, count, then txs in order —
// to w in chunks of about recordChunk bytes and returns the number of bytes
// written. The last len(live) transactions take their parameter vectors from
// live, the others from their own field.
func writeRecords(w io.Writer, magic [4]byte, txs []*Transaction, live [][]float64) (int64, error) {
	var written int64
	flush := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	b := appendHeader(nil, magic, len(txs))
	floor := len(txs) - len(live)
	for i, t := range txs {
		var params []float64
		if i >= floor {
			params = live[i-floor] // and t.Params, which a freeze may be releasing, is not read
		} else {
			params = t.Params
		}
		var err error
		if b, err = appendRecord(b, t, params); err != nil {
			return written, err
		}
		if len(b) >= recordChunk {
			if err := flush(b); err != nil {
				return written, err
			}
			b = b[:0]
		}
	}
	return written, flush(b)
}

// readHeader reads a record stream's magic and count; what names the
// expected format ("a SDG1 snapshot") for the wrong-magic error.
func readHeader(br *bufio.Reader, want [4]byte, what string) (uint32, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("dag: reading magic: %w", err)
	}
	if magic != want {
		return 0, fmt.Errorf("dag: bad magic %q (not %s)", magic, what)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return 0, fmt.Errorf("dag: reading count: %w", err)
	}
	if count > maxSnapshotTxs {
		return 0, fmt.Errorf("dag: header claims %d transactions (limit %d)", count, maxSnapshotTxs)
	}
	return count, nil
}

// A Capture is the tangle as it stood at one moment, for the price of the
// live suffix's slice headers: Size and WriteTo answer for that moment however
// far the DAG has grown, compacted or spilled since, and WriteTo takes no lock.
// It rests on the ledger being append-only: the transaction list's prefix,
// clipped to its length, stays what it was, and the one write a published
// transaction ever sees is freezeEpochLocked releasing its parameter vector
// (Params = nil). So the capture pins the vectors of [floor, n) itself and the
// encoder never reads that field there — it neither races with a later freeze
// nor sees it; below the captured floor the field was released before the
// capture and is not written again (genesis keeps its vector for good).
type Capture struct {
	txs  []*Transaction
	live [][]float64 // parameter vectors of txs[len(txs)-len(live):]
	size int
}

// Capture pins the DAG's current state: O(live suffix) words, nothing encoded.
func (d *DAG) Capture() *Capture {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.txs)
	floor := int(d.floor.Load())
	c := &Capture{txs: d.txs[:n:n], live: make([][]float64, n-floor), size: len(codecMagic) + 4}
	for i, t := range c.txs {
		if i >= floor {
			c.live[i-floor] = t.Params
		}
		c.size += recordSize(t, t.Params)
	}
	return c
}

// Size is the number of bytes WriteTo writes: what a caller that collects the
// stream in memory reserves up front.
func (c *Capture) Size() int { return c.size }

// WriteTo serializes the captured tangle to w as an SDG1 stream and returns
// the number of bytes written.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	return writeRecords(w, codecMagic, c.txs, c.live)
}

// WriteTo serializes the DAG to w and returns the number of bytes written.
// Frozen transactions (below the compaction floor) serialize with their
// released, empty parameter vectors — checkpoint size stays proportional to
// the live suffix.
func (d *DAG) WriteTo(w io.Writer) (int64, error) {
	return d.Capture().WriteTo(w)
}

// ReadDAG deserializes a snapshot previously written with WriteTo,
// re-validating every structural invariant. The snapshot may be a section of
// a longer stream: a *bufio.Reader is left at the first byte after the last
// record; any other reader is buffered here and may be read past that.
func ReadDAG(r io.Reader) (*DAG, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return readDAG(br)
}

// readDAG decodes one snapshot off br, consuming exactly its bytes.
func readDAG(br *bufio.Reader) (*DAG, error) {
	count, err := readHeader(br, codecMagic, "a SDG1 snapshot")
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, fmt.Errorf("dag: snapshot has no transactions (missing genesis)")
	}

	genesis, err := readTxRecord(br, 0)
	if err != nil {
		return nil, fmt.Errorf("dag: %w", err)
	}
	if !genesis.IsGenesis() {
		return nil, fmt.Errorf("dag: first transaction has issuer %d, want genesis (%d)", genesis.Issuer, GenesisIssuer)
	}
	if len(genesis.Parents) != 0 {
		return nil, fmt.Errorf("dag: genesis must have no parents, got %d", len(genesis.Parents))
	}
	d := New(genesis.Params)
	d.txs[0].Round = genesis.Round
	d.txs[0].Meta = genesis.Meta

	for i := uint32(1); i < count; i++ {
		tx, err := readTxRecord(br, uint64(i))
		if err != nil {
			return nil, fmt.Errorf("dag: %w", err)
		}
		if _, err := d.Add(tx.Issuer, tx.Round, tx.Parents, tx.Params, tx.Meta); err != nil {
			return nil, fmt.Errorf("dag: rebuilding tx %d: %w", i, err)
		}
	}
	return d, nil
}
