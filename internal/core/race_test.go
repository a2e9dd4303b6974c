//go:build race

package core

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates behind the code under test.
const raceEnabled = true
