//go:build race

package ppdb

func init() { raceEnabled = true }
