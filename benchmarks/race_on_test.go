//go:build race

package main

// raceEnabled: the detector slows the kernels tenfold, so the smoke run's
// time limit does not apply under -race.
const raceEnabled = true
