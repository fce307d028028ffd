package main

import "errors"

// The benchmark reports times as they would be on a machine of fixed
// speed, because the machines it runs on are not: a shared host slows
// every process of the sandbox by a factor of 1.2 to 1.5 for minutes at
// a time, which is more than any bound a metric may carry, and no
// statistic taken inside a 20 s run can see past a phase that outlasts
// it. So every run measures the machine as well. The yardstick
// (yardstick/main.go) is a fixed program with the warehouse's shape; the
// harness times its boot next to every boot of the system and one of
// its requests before every fourth request of a load loop, on the same
// cores, through the same HTTP client, within milliseconds of the
// operations being timed. A time is then scaled by nominal yardstick
// time / measured yardstick time, a rate by the inverse.
//
// The nominal times are this sandbox's in its fast phase. They only fix
// the scale: a reported millisecond is a millisecond of a machine on
// which a yardstick request takes yardPointMs and its boot yardBootS.
const (
	yardPointMs = 0.25
	yardBootS   = 0.15
	// minYardSamples is the fewest yardstick requests a window may hold
	// for their median to stand for the machine's speed.
	minYardSamples = 30
)

var errNoYardstick = errors.New("too few yardstick requests succeeded to tell how fast the machine was")

// speedFactor is what a time measured beside the given yardstick times
// (ms, ascending) is multiplied by to express it at nominal speed.
func speedFactor(yardMs []float64) (float64, error) {
	if len(yardMs) < minYardSamples {
		return 0, errNoYardstick
	}
	return yardPointMs / quantile(yardMs, 0.5), nil
}

// atNominalBoot scales each set-up time by the boot of the yardstick
// started just before it.
func atNominalBoot(setupS, yardS []float64) []float64 {
	out := make([]float64, len(setupS))
	for i := range setupS {
		out[i] = setupS[i] * yardBootS / yardS[i]
	}
	return out
}
