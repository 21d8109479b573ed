package main

import (
	"math/rand"
	"time"
)

// poissonSchedule returns the send offsets of an open-loop Poisson arrival
// process at rate per second over [0, d). It is a pure function of its
// arguments: the same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// subSeed derives an independent stream seed from the workload seed
// (splitmix64 finalizer), so each random input has its own stream.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
