//go:build race

package system

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// what is put back, so allocation counts through a pool are not exact.
const raceEnabled = true
