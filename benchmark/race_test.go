//go:build race

package main

// raceEnabled reports that the race detector is on. It slows the
// servers about tenfold, so the open loop's fixed arrival rates overrun
// them and arrivals are dropped: the smoke test does not hold
// mixed_open to "nothing failed" then.
const raceEnabled = true
