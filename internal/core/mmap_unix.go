//go:build linux || darwin

package core

// mmap_unix.go is the thin platform layer under MapIndex: a
// read-only shared mapping of a snapshot file. MAP_SHARED means two
// generations mapped during a swap share the page cache instead of
// doubling RSS, and PROT_READ turns any stray write through a factor
// view into a fault instead of silent snapshot corruption.

import (
	"os"
	"syscall"
)

const mmapSupported = true

func mmapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
