package dag

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
// not start at genesis — so both formats go through one writer
// (writeRecords) and one header and record reader (readHeader, readTxRecord).

// codecMagic identifies snapshot files and fixes the version.
var codecMagic = [4]byte{'S', 'D', 'G', '1'}

// maxSnapshotTxs bounds decoding work against adversarial headers.
const maxSnapshotTxs = 1 << 24

// txRecordWriter encodes transaction records in the SDG1 layout.
type txRecordWriter struct {
	cw  *countingWriter
	buf [binary.MaxVarintLen64]byte
}

func (e *txRecordWriter) putUvarint(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.cw.Write(e.buf[:n])
	return err
}

func (e *txRecordWriter) putVarint(v int64) error {
	n := binary.PutVarint(e.buf[:], v)
	_, err := e.cw.Write(e.buf[:n])
	return err
}

func (e *txRecordWriter) putFloat(f float64) error {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(f))
	_, err := e.cw.Write(e.buf[:8])
	return err
}

// write encodes one transaction record.
func (e *txRecordWriter) write(t *Transaction) error {
	cw := e.cw
	if err := e.putUvarint(uint64(t.ID)); err != nil {
		return err
	}
	if err := e.putVarint(int64(t.Issuer)); err != nil {
		return err
	}
	if err := e.putVarint(int64(t.Round)); err != nil {
		return err
	}
	if len(t.Parents) > 255 {
		return fmt.Errorf("dag: transaction %d has %d parents", t.ID, len(t.Parents))
	}
	if _, err := cw.Write([]byte{byte(len(t.Parents))}); err != nil {
		return err
	}
	for _, p := range t.Parents {
		if err := e.putUvarint(uint64(p)); err != nil {
			return err
		}
	}
	for _, f := range []float64{t.Meta.TrainAcc, t.Meta.TestAcc} {
		if err := e.putFloat(f); err != nil {
			return err
		}
	}
	poisoned := byte(0)
	if t.Meta.Poisoned {
		poisoned = 1
	}
	if _, err := cw.Write([]byte{poisoned}); err != nil {
		return err
	}
	if err := e.putUvarint(uint64(len(t.Params))); err != nil {
		return err
	}
	for _, f := range t.Params {
		if err := e.putFloat(f); err != nil {
			return err
		}
	}
	return nil
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
	if nParams > 1<<28 {
		return nil, fmt.Errorf("tx %d: implausible param count %d", want, nParams)
	}
	// The vector grows with the input, by doubling up to exactly nParams, so
	// a forged count allocates at most twice what the stream really backs.
	params := make([]float64, 0, min(nParams, 1<<12))
	for i := uint64(0); i < nParams; i++ {
		f, err := readFloat(br, &f64)
		if err != nil {
			return nil, fmt.Errorf("tx %d: param %d: %w", want, i, err)
		}
		if len(params) == cap(params) {
			params = append(make([]float64, 0, min(nParams, 2*uint64(cap(params)))), params...)
		}
		params = append(params, f)
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

// writeRecords writes one record stream — magic, count, then txs in order —
// through a buffer to w and returns the number of bytes written.
func writeRecords(w io.Writer, magic [4]byte, txs []*Transaction) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	if _, err := cw.Write(magic[:]); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(txs))); err != nil {
		return cw.n, err
	}
	enc := txRecordWriter{cw: cw}
	for _, t := range txs {
		if err := enc.write(t); err != nil {
			return cw.n, err
		}
	}
	return cw.n, bw.Flush()
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

// WriteTo serializes the DAG to w and returns the number of bytes written.
// Frozen transactions (below the compaction floor) serialize with their
// released, empty parameter vectors — checkpoint size stays proportional to
// the live suffix.
func (d *DAG) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return writeRecords(w, codecMagic, d.txs)
}

// ReadDAG deserializes a snapshot previously written with WriteTo,
// re-validating every structural invariant.
func ReadDAG(r io.Reader) (*DAG, error) {
	br := bufio.NewReader(r)
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

// countingWriter tracks bytes written for writeRecords' return value.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
