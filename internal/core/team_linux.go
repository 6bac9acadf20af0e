package core

import "syscall"

// osYield gives the CPU to another runnable thread, if the OS has one
// queued on it, and otherwise returns at once.
func osYield() {
	syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
