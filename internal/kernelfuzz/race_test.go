//go:build race

package kernelfuzz

const raceEnabled = true
