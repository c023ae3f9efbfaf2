package gossip

import (
	"errors"

	"repro/internal/server"
)

// ServerLocal adapts a *server.Server as a gossip contribution source: each
// named accumulator's quiescent HP partial (via Accumulator.Envelope, the
// same agreed cut snapshots, audit records and certified reads take)
// becomes one contribution.
//
// The local engine holds ONLY locally-ingested frames; remote partials live
// in the gossip store and are never folded back into the engine. That
// separation is what keeps re-gossip from double-counting a non-idempotent
// sum.
type ServerLocal struct {
	S *server.Server
}

// Contributions implements Local. Accumulators that are busy or diverged
// are skipped this round rather than failing the whole refresh — gossip
// retries every interval.
func (l ServerLocal) Contributions() ([]Contribution, error) {
	if l.S == nil {
		return nil, errors.New("gossip: nil server")
	}
	var out []Contribution
	for _, name := range l.S.Names() {
		acc := l.S.Lookup(name)
		if acc == nil {
			continue // deleted between Names and Lookup
		}
		h, adds, frames, err := acc.Envelope()
		if err != nil {
			continue // busy/diverged this round; retry next interval
		}
		if frames == 0 {
			continue // nothing ingested yet; an empty entry adds no information
		}
		out = append(out, Contribution{Acc: name, HP: h, Adds: adds, Frames: frames})
	}
	return out, nil
}
