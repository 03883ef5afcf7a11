//go:build race

package main

// The race detector slows the simulator some sixty times and unwinds no
// stack through its own runtime calls, so tests that time probes or
// attribute a real profile are skipped under it.
const raceEnabled = true
