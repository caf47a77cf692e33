package dag

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
// not start at genesis. Both are walked by the binary walker (walk.go): one
// header layout and one record layout (Codec.header, Codec.record) drive the
// pass that sizes a Capture, the writer and the reader. A simulation
// checkpoint (SDC3/SDA3, internal/core) carries a whole SDG1 stream as its
// first section, and its engine state is walked by the same Codec.

// Magic identifies SDG1 snapshots and fixes the version; the checkpoint and
// event-stream readers name a file that carries it as a bare DAG snapshot.
var Magic = [4]byte{'S', 'D', 'G', '1'}

// maxSnapshotTxs bounds decoding work against adversarial headers.
const maxSnapshotTxs = 1 << 24

// MaxParams bounds a decoded parameter vector's length: a larger count is
// rejected as corrupt before anything is allocated for it.
const MaxParams = 1 << 28

// header walks a record stream's header: the magic, then the transaction
// count as a little-endian u32. Decoding, what names the expected format for
// the wrong-magic error, and a count above maxSnapshotTxs is rejected.
func (c *Codec) header(magic [4]byte, what string, count *uint32) {
	got := magic
	for i := range got {
		c.u8(&got[i])
	}
	if c.Decoding() {
		switch {
		case c.err != nil:
			c.err = fmt.Errorf("reading magic: %w", c.err)
			return
		case got != magic:
			c.err = fmt.Errorf("bad magic %q (not %s)", got, what)
			return
		}
	}
	var le [4]byte
	binary.LittleEndian.PutUint32(le[:], *count)
	for i := range le {
		c.u8(&le[i])
	}
	if c.Decoding() {
		*count = binary.LittleEndian.Uint32(le[:])
		switch {
		case c.err != nil:
			c.err = fmt.Errorf("reading count: %w", c.err)
		case *count > maxSnapshotTxs:
			c.err = fmt.Errorf("header claims %d transactions (limit %d)", *count, maxSnapshotTxs)
		}
	}
}

// record walks one transaction record, with *params as its parameter vector:
// encoding, t.Params or what a Capture pinned of it — the field itself is not
// read here. Decoding, t.ID is the ID the record must carry, every parent must
// strictly precede it, and a parameter count above MaxParams is rejected
// before anything is allocated for it.
func (c *Codec) record(t *Transaction, params *[]float64) {
	id := uint64(t.ID)
	c.uvarint(&id)
	if c.Decoding() && c.err == nil && id != uint64(t.ID) {
		c.err = fmt.Errorf("non-sequential id %d", id)
	}
	Num(c, &t.Issuer)
	Num(c, &t.Round)
	if !c.Decoding() && len(t.Parents) > 255 {
		c.Fail(fmt.Errorf("dag: transaction %d has %d parents", t.ID, len(t.Parents)))
	}
	np := uint8(len(t.Parents))
	c.u8(&np)
	if c.Decoding() {
		t.Parents = make([]ID, np)
	}
	for i := range t.Parents {
		p := uint64(t.Parents[i])
		c.uvarint(&p)
		if c.Decoding() {
			if c.err == nil && p >= id {
				c.err = fmt.Errorf("parent %d does not precede child", p)
			}
			t.Parents[i] = ID(p)
		}
	}
	c.Float(&t.Meta.TrainAcc)
	c.Float(&t.Meta.TestAcc)
	var poisoned uint8
	if t.Meta.Poisoned {
		poisoned = 1
	}
	c.u8(&poisoned)
	if c.Decoding() {
		t.Meta.Poisoned = poisoned != 0
	}
	n := uint64(len(*params))
	c.uvarint(&n)
	if c.Decoding() && c.err == nil && n > MaxParams {
		c.err = fmt.Errorf("implausible param count %d", n)
	}
	c.floats(params, int(n))
}

// records walks a record stream for the encoder or the counter: magic, count,
// then txs in order. The last len(live) transactions take their parameter
// vectors from live, the others from their own field.
func (c *Codec) records(magic [4]byte, txs []*Transaction, live [][]float64) {
	count := uint32(len(txs))
	c.header(magic, "", &count)
	floor := len(txs) - len(live)
	for i, t := range txs {
		var params []float64
		if i >= floor {
			params = live[i-floor] // and t.Params, which a freeze may be releasing, is not read
		} else {
			params = t.Params
		}
		c.record(t, &params)
	}
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
	c := &Capture{txs: d.txs[:n:n], live: make([][]float64, n-floor)}
	for i, t := range d.txs[floor:n] {
		c.live[i] = t.Params
	}
	count := NewCounter()
	count.records(Magic, c.txs, c.live)
	count.Flush()
	c.size = int(count.Written())
	return c
}

// Size is the number of bytes WriteTo writes: what a caller that collects the
// stream in memory reserves up front.
func (c *Capture) Size() int { return c.size }

// WriteTo serializes the captured tangle to w as an SDG1 stream, in chunks,
// and returns the number of bytes written.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	enc := NewEncoder(w)
	enc.records(Magic, c.txs, c.live)
	err := enc.Flush()
	return enc.Written(), err
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
	dec := NewDecoder(br)
	var count uint32
	if dec.header(Magic, "a SDG1 snapshot", &count); dec.Err() != nil {
		return nil, fmt.Errorf("dag: %w", dec.Err())
	}
	if count == 0 {
		return nil, fmt.Errorf("dag: snapshot has no transactions (missing genesis)")
	}

	genesis := &Transaction{}
	if dec.record(genesis, &genesis.Params); dec.Err() != nil {
		return nil, fmt.Errorf("dag: tx 0: %w", dec.Err())
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
		tx := &Transaction{ID: ID(i)}
		if dec.record(tx, &tx.Params); dec.Err() != nil {
			return nil, fmt.Errorf("dag: tx %d: %w", i, dec.Err())
		}
		if _, err := d.Add(tx.Issuer, tx.Round, tx.Parents, tx.Params, tx.Meta); err != nil {
			return nil, fmt.Errorf("dag: rebuilding tx %d: %w", i, err)
		}
	}
	return d, nil
}
