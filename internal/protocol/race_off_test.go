//go:build !race

package protocol

// raceDetector reports whether the test binary was built with -race.
const raceDetector = false
