//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given, so allocation bounds that rely on reuse do not hold.
const raceEnabled = true
