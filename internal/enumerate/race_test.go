//go:build race

package enumerate

// raceEnabled reports a build with the race detector.
const raceEnabled = true
