package server

import (
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Fuzz target for the wire-frame decoder — the first thing untrusted client
// bytes hit. The seed corpus mirrors internal/core's fuzz convention: valid
// frames plus faults.CorruptBytes maulings of them, so the fuzzer starts at
// exactly the inputs a chaos run's corrupted transport would deliver.
// Invariant: every frame the decoder accepts re-encodes to the identical
// bytes (CRC included), every reject happens without a panic or an
// attacker-sized allocation, and decoding stops at the first bad frame.

func frameSeeds(f *testing.F) [][]byte {
	f.Helper()
	var encs [][]byte
	encs = append(encs,
		AppendFloatFrame(nil, nil),
		AppendFloatFrame(nil, []float64{0}),
		AppendFloatFrame(nil, []float64{1.5, -2.25, 1e300, -1e-300}),
		AppendFloatFrame(nil, []float64{math.Copysign(0, -1), math.MaxFloat64}),
	)
	for _, p := range []core.Params{core.Params128, core.Params384} {
		h, err := core.FromFloat64(p, -12.375)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := AppendHPFrame(nil, h)
		if err != nil {
			f.Fatal(err)
		}
		encs = append(encs, enc)
	}
	// Multi-frame stream: corruption mid-stream must stop the decode there.
	multi := AppendFloatFrame(nil, []float64{1, 2, 3})
	multi = AppendFloatFrame(multi, []float64{4})
	encs = append(encs, multi)

	out := encs[:len(encs):len(encs)]
	r := rng.New(0xC0FFEE)
	for _, enc := range encs {
		for i := 0; i < 8; i++ {
			out = append(out, faults.CorruptBytes(r, append([]byte(nil), enc...)))
		}
		heavy := append([]byte(nil), enc...)
		for i := 0; i < 8; i++ {
			faults.CorruptBytes(r, heavy)
		}
		out = append(out, heavy)
	}
	return out
}

func FuzzFrameDecode(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.NewDecoder(bytes.NewReader(data), &IngestFrames, MaxFramePayload)
		var reencoded []byte
		for {
			fr, err := dec.Next()
			if err == io.EOF {
				// Clean end: everything accepted must round-trip to the
				// exact bytes consumed (accepted frames are a prefix).
				if !bytes.Equal(reencoded, data[:len(reencoded)]) {
					t.Fatalf("re-encode differs from accepted prefix:\n %x\n %x",
						reencoded, data[:len(reencoded)])
				}
				return
			}
			if err != nil {
				return // rejected without panic: fine
			}
			switch fr.Type {
			case FrameFloat64:
				xs, err := wire.Float64s(nil, fr.Payload, core.ErrNotFinite)
				if err != nil {
					return // non-finite payload rejected at admission
				}
				reencoded = AppendFloatFrame(reencoded, xs)
			case FrameHP:
				h, err := frameHP(fr.Payload)
				if err != nil {
					return
				}
				hEnc, err := AppendHPFrame(nil, h)
				if err != nil {
					t.Fatalf("accepted HP failed to re-encode: %v", err)
				}
				reencoded = append(reencoded, hEnc...)
			default:
				t.Fatalf("decoder returned undefined frame type %q", fr.Type)
			}
			// The decoder must never hand back a frame larger than its bound.
			if len(fr.Payload) > MaxFramePayload {
				t.Fatalf("payload %d exceeds bound %d", len(fr.Payload), MaxFramePayload)
			}
		}
	})
}
