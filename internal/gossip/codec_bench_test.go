package gossip

import "testing"

// BenchmarkDecodeMessage decodes one pull-reply frame (view, digests and an
// entry carrying an HP envelope): the per-frame cost every gossip round
// pays on receipt.
func BenchmarkDecodeMessage(b *testing.B) {
	frame, err := AppendMessage(nil, testMessage(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeMessage(frame); err != nil {
			b.Fatal(err)
		}
	}
}
