//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly || solaris || illumos

package main

import "syscall"

// minorFaults returns the minor page faults the process has taken since
// exec — getrusage(RUSAGE_SELF)'s ru_minflt: on a cold boot, about one
// for every 4 KiB page of fresh memory it has touched.
func minorFaults() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return int64(ru.Minflt), true
}
