//go:build race

package main

// raceEnabled reports whether the race detector slows this test binary down
// several times over, which moves every timing past its target.
const raceEnabled = true
