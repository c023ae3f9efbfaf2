//go:build race

package server

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what is put back at random, so pool reuse cannot be measured.
const raceEnabled = true
