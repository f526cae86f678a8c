//go:build !linux

package main

// keepAwake is a no-op where SCHED_IDLE does not exist; see
// keepawake_linux.go for what it does and why.
func keepAwake() (stop func()) { return func() {} }

func spin() {}
