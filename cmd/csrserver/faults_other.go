//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly || solaris || illumos)

package main

// minorFaults is unsupported here: the ready line omits faults=.
func minorFaults() (int64, bool) { return 0, false }
