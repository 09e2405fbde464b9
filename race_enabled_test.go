//go:build race

package olap

func init() { raceEnabled = true }
