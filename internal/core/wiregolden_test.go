package core

import (
	"encoding/hex"
	"testing"
)

// Golden wire bytes for the HPCK sum checkpoint: a fixed checkpoint must
// encode to hex captured once from the encoder, and that hex must decode
// back to the same step and sum. A codec refactor that changes a single
// byte of the format fails here.
const goldenCheckpoint = "4850434b" + "01" + "000000000000002a" +
	"0100020001" + "fffffffffffffffe" + "c000000000000000" +
	"422d7ea4"

func TestGoldenCheckpoint(t *testing.T) {
	sum, err := FromFloat64(Params128, -1.25)
	if err != nil {
		t.Fatal(err)
	}
	ck := &SumCheckpoint{Step: 42, Sum: sum}
	got, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if g := hex.EncodeToString(got); g != goldenCheckpoint {
		t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", g, goldenCheckpoint)
	}
	data, err := hex.DecodeString(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var back SumCheckpoint
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Step != 42 || !back.Sum.Equal(sum) {
		t.Fatalf("checkpoint decoded to step %d sum %v", back.Step, back.Sum)
	}
}
