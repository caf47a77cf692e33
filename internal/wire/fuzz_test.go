package wire

// FuzzWireDecode hammers the SDE1 decoder with arbitrary bytes: the same
// contract as the checkpoint fuzzer (internal/core.FuzzCheckpointDecode),
// applied to the event-stream codec. Malformed input of any shape must come
// back as a non-empty, actionable error (or decode as a genuinely valid
// stream), never a panic. The seed corpus covers the real format (a full
// stream of every frame kind, and the committed golden stream),
// truncations, flipped header and gob bytes, and the sibling
// SDC3/SDA3/SDC2/SDA2/SDG1 magics, so the fuzzer starts at the interesting
// boundaries: header confusion and gob-payload corruption.

import (
	"bytes"
	"io"
	"os"
	"testing"
)

func FuzzWireDecode(f *testing.F) {
	frames := sampleFrames()
	var full bytes.Buffer
	w, err := NewWriter(&full)
	if err != nil {
		f.Fatal(err)
	}
	for i := range frames {
		if err := w.WriteFrame(&frames[i]); err != nil {
			f.Fatal(err)
		}
	}

	golden, err := os.ReadFile(goldenStreamPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(full.Bytes())
	f.Add(full.Bytes()[:4])
	f.Add(full.Bytes()[:full.Len()/2])
	f.Add([]byte{})
	f.Add([]byte("SDE1"))
	f.Add([]byte("SDE1garbage"))
	// Magic confusion: checkpoint-family headers over an event-stream
	// payload and an event-stream header over nothing meaningful.
	for _, m := range []string{"SDC3", "SDA3", "SDC2", "SDA2", "SDG1"} {
		f.Add(append([]byte(m), full.Bytes()[4:]...))
	}
	// Flipped header and gob bytes.
	for _, i := range []int{0, 3, 5, 7, 40} {
		if i < full.Len() {
			mut := append([]byte(nil), full.Bytes()...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("bounded: the seed streams are a few KB")
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("NewReader returned an empty error")
			}
			return
		}
		for i := 0; i < 10_000; i++ { // bound: arbitrary bytes cannot stream forever
			fr, err := r.ReadFrame()
			if err == io.EOF {
				return
			}
			if err != nil {
				if err.Error() == "" {
					t.Fatal("ReadFrame returned an empty error")
				}
				return
			}
			if err := fr.validate(); err != nil {
				t.Fatalf("ReadFrame returned an invalid frame: %v", err)
			}
		}
	})
}
