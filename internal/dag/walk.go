package dag

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// codecChunk is how much of a layout an encoding Codec buffers before it
// hands the bytes on.
const codecChunk = 64 << 10

// maxList bounds a decoded list length, maxString a string's (an event
// frame's label or error may be as long as a request body). Both grow only as
// their elements arrive, so a forged length costs what the input backs;
// encoding a longer one is an error, so what is written reads back.
const (
	maxList   = 1 << 24
	maxString = 1 << 24
)

// A Codec is one pass over a binary layout — an SDG1 or SDS1 record stream
// (codec.go), a checkpoint's state section (SDC3/SDA3, internal/core) or an
// SDE2 event frame (internal/wire) — field by field in the order the format's
// one layout function gives, so its counter, writer and reader cannot drift
// apart: decoding (NewDecoder; each field is assigned), encoding (NewEncoder;
// each field is only read, so one value may be encoded on several goroutines
// at once) into w in chunks, or counting (NewCounter) the bytes that would be
// written without touching a parameter vector.
// Errors are sticky: after the first, every field decodes as zero, nothing
// more is consumed or written, and Err reports it.
//
// The layout is varint integers (zigzag), 8-byte little-endian floats, a
// length before every list and string, and a parameter vector as its length
// and a raw span: each float's IEEE-754 bit pattern, little-endian.
type Codec struct {
	br  *bufio.Reader
	err error

	w     io.Writer
	b     []byte
	n     int64
	chunk int // Flush once b holds this much
}

// NewEncoder returns a Codec that writes what it walks to w; Flush hands on
// what it still buffers.
func NewEncoder(w io.Writer) *Codec { return &Codec{w: w, chunk: codecChunk} }

// NewDecoder returns a Codec that reads what it walks off br.
func NewDecoder(br *bufio.Reader) *Codec { return &Codec{br: br} }

// NewCounter returns a Codec that only counts the bytes an encoder would
// write (Written, after Flush). It tallies its buffer once a KiB is in it,
// so a walk reuses one small buffer.
func NewCounter() *Codec { return &Codec{b: make([]byte, 0, 2<<10), chunk: 1 << 10} }

// Decoding reports whether the walk assigns the fields (or only reads them).
func (c *Codec) Decoding() bool { return c.br != nil }

// Err is the first error the walk met.
func (c *Codec) Err() error { return c.err }

// Fail records err, unless an earlier error is recorded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Written is the number of bytes an encoder has handed on, or a counter
// counted, as of the last Flush.
func (c *Codec) Written() int64 { return c.n }

// spill hands the buffered bytes on (or tallies them) once a chunk is full.
func (c *Codec) spill() {
	if len(c.b) >= c.chunk {
		c.Flush()
	}
}

// Flush hands the buffered bytes on (or tallies them) and returns Err.
func (c *Codec) Flush() error {
	if c.w == nil {
		c.n += int64(len(c.b))
	} else if c.err == nil {
		m, err := c.w.Write(c.b)
		c.n += int64(m)
		c.err = err
	}
	c.b = c.b[:0]
	return c.err
}

func (c *Codec) varint(v *int64) {
	if c.br == nil {
		c.b = binary.AppendVarint(c.b, *v)
		c.spill()
	} else if c.err == nil {
		if *v, c.err = binary.ReadVarint(c.br); c.err != nil {
			*v = 0
		}
	}
}

// uvarint walks a plain (not zigzag) uvarint.
func (c *Codec) uvarint(v *uint64) {
	if c.br == nil {
		c.b = binary.AppendUvarint(c.b, *v)
		c.spill()
	} else if c.err == nil {
		if *v, c.err = binary.ReadUvarint(c.br); c.err != nil {
			*v = 0
		}
	}
}

// u8 walks one raw byte.
func (c *Codec) u8(v *uint8) {
	if c.br == nil {
		c.b = append(c.b, *v)
		c.spill()
	} else if c.err == nil {
		if *v, c.err = c.br.ReadByte(); c.err != nil {
			*v = 0
		}
	}
}

// Num walks one integer field of any width; decoding a value the field
// cannot hold is an error.
func Num[T ~int | ~int64 | ~uint8 | ~uint64](c *Codec, v *T) {
	x := int64(*v)
	c.varint(&x)
	if c.br != nil {
		*v = T(x)
		if int64(*v) != x {
			c.Fail(fmt.Errorf("%d overflows a %T", x, *v))
		}
	}
}

// length walks a list or string length; one above max is an error.
func (c *Codec) length(n int, max int64) int {
	x := int64(n)
	if c.br == nil && x > max {
		c.Fail(fmt.Errorf("length %d exceeds %d", x, max))
	}
	c.varint(&x)
	if c.br != nil && c.err == nil && (x < 0 || x > max) {
		c.err = fmt.Errorf("implausible length %d", x)
		return 0
	}
	return int(x)
}

// Float walks a float64.
func (c *Codec) Float(v *float64) {
	if c.br == nil {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		c.spill()
		return
	}
	// Peek and Discard, as readFloats does: the bytes are read where they
	// lie, with io.ReadFull's errors (io.EOF when none arrived,
	// io.ErrUnexpectedEOF when some did).
	var x uint64
	if c.err == nil {
		b, err := c.br.Peek(8)
		switch {
		case err == nil:
			x = binary.LittleEndian.Uint64(b)
			c.br.Discard(8)
		case err == io.EOF && len(b) > 0:
			c.err = io.ErrUnexpectedEOF
		default:
			c.err = err
		}
	}
	*v = math.Float64frombits(x)
}

// Bool walks a bool.
func (c *Codec) Bool(v *bool) {
	var x int64
	if *v {
		x = 1
	}
	c.varint(&x)
	if c.br != nil {
		*v = x == 1
	}
}

// String walks a string: its length, then its bytes, decoded in steps of at
// most what has arrived.
func (c *Codec) String(s *string) {
	n := c.length(len(*s), maxString)
	if c.br == nil {
		c.b = append(c.b, *s...)
		c.spill()
		return
	}
	b := make([]byte, 0, min(n, 1<<12))
	for len(b) < n && c.err == nil {
		k := min(n-len(b), max(len(b), 1<<12))
		b = slices.Grow(b, k)[:len(b)+k]
		_, c.err = io.ReadFull(c.br, b[len(b)-k:])
	}
	*s = string(b)
}

// Span walks a parameter vector: its length, then its raw span. A vector of
// length zero decodes to nil.
func (c *Codec) Span(v *[]float64) {
	n := c.length(len(*v), MaxParams)
	if c.br == nil || n > 0 {
		c.floats(v, n)
	}
}

// floats walks a raw span of n floats, with no length. Encoding, the buffer
// grows once and is filled in place; decoding, *v becomes a new vector of
// exactly n floats.
func (c *Codec) floats(v *[]float64, n int) {
	switch {
	case c.br != nil:
		if c.err == nil {
			*v, c.err = readFloats(c.br, n)
		}
	case c.w == nil:
		c.n += 8 * int64(n)
	default:
		at := len(c.b)
		c.b = slices.Grow(c.b, 8*n)[:at+8*n]
		for i, f := range *v {
			binary.LittleEndian.PutUint64(c.b[at+8*i:], math.Float64bits(f))
		}
		c.spill()
	}
}

// readFloats decodes a raw span of n floats off br. The vector is decoded
// straight out of the reader's buffer, as many whole floats as it holds at a
// time, and grows only once their bytes are there — by doubling, up to
// exactly n — so a forged count allocates at most twice what the stream
// really backs. An error names the first float the input does not back.
func readFloats(br *bufio.Reader, n int) ([]float64, error) {
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

// List walks a slice: its length, then each element through one. Decoding
// appends to the (empty) field, so a list of length zero decodes to nil.
func List[T any](c *Codec, s *[]T, one func(*T)) {
	n := c.length(len(*s), maxList)
	if c.br == nil {
		for i := range *s {
			one(&(*s)[i])
		}
		return
	}
	for i := 0; i < n && c.err == nil; i++ {
		var v T
		one(&v)
		*s = append(*s, v)
	}
}

// Ints walks a slice of integers.
func Ints[T ~int | ~int64](c *Codec, s *[]T) {
	List(c, s, func(v *T) { Num(c, v) })
}
