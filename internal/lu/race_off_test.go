//go:build !race

package lu

const raceEnabled = false
