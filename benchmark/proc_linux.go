package main

import (
	"os/exec"
	"syscall"
	"time"
)

// dieWithParent has the kernel kill the child when the benchmark dies
// without having stopped it, so that no run can leave a server behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// sleepUntil blocks until t. A Go timer that has to wake an idle process
// fires up to a millisecond late, because the runtime waits for it in
// epoll_wait, which counts in milliseconds; nanosleep(2) wakes within a
// tenth of that, which a paced request timed from its due time needs. A
// signal cuts a nanosleep short, hence the loop.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
