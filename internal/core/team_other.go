//go:build !linux

package core

import "runtime"

// osYield lets other goroutines run; without sched_yield it is the closest
// portable stand-in.
func osYield() {
	runtime.Gosched()
}
