//go:build race

package ring

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random fraction of Puts, so allocation pins that rely on pooled scratch
// cannot hold under it.
const raceEnabled = true
