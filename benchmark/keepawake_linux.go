//go:build linux

package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On the reference host — a 2-vCPU Firecracker guest — a halted vCPU
// takes 50–200 µs to wake, and how long depends on what the rest of the
// physical machine is doing, minute by minute. The program under test
// forks and joins goroutines across both vCPUs every decode round, so
// that wake latency, not the program, decided the numbers: the same
// commit and seed read e2e_p50_ms anywhere from 8 to 18 ms. With the
// vCPUs kept out of the halted state the same runs agree within 4%.
//
// keepAwake therefore starts one spinner per CPU: a copy of this binary
// that drops itself to SCHED_IDLE and loops. SCHED_IDLE threads run only
// when a CPU has nothing else to do and are preempted the moment a
// normal thread wakes, so the spinners take no time from the program;
// they only keep the CPU from halting. They are harness, not program:
// the program still runs in this one process with GOMAXPROCS = nproc.

const schedIdle = 5 // SCHED_IDLE, linux/sched.h

// keepAwake starts the spinners and returns the function that stops
// them and waits for them to exit. A spinner that cannot be started
// leaves the run noisier, not wrong, so failures are only reported.
func keepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	type spinner struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var spinners []spinner
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinFlag)
		// The child exits when this pipe closes, so it cannot outlive the
		// benchmark even if the benchmark is killed.
		stdin, err := cmd.StdinPipe()
		if err != nil {
			break
		}
		if err := cmd.Start(); err != nil {
			stdin.Close()
			break
		}
		spinners = append(spinners, spinner{cmd, stdin})
	}
	return func() {
		for _, s := range spinners {
			s.stdin.Close()
			_ = s.cmd.Process.Kill()
			_ = s.cmd.Wait() // the kill makes the exit status an error by design
		}
	}
}

// spin is the spinner child: idle priority, busy loop, exit when the
// parent's pipe closes.
func spin() {
	runtime.GOMAXPROCS(1)
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	param := struct{ priority int32 }{0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		os.Exit(1) // at any other priority a spinner would compete with the program
	}
	for {
	}
}
