//go:build race

package cluster

// raceEnabled: the race detector makes sync.Pool drop a random quarter
// of its Puts, so a test cannot count on a pooled machine being reused.
const raceEnabled = true
