//go:build !race

package system

const raceEnabled = false
