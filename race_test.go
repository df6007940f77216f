//go:build race

package lowutil

func init() { raceEnabled = true }
