package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The box is a KVM guest. A vCPU with nothing to run halts, and waking a
// halted vCPU goes through the host. A request path is all wake-ups —
// socket, batcher, GEMM fan-out — and with the guest left to halt, runs of
// one workload alternated between two speeds 1.5× apart from one run to the
// next (README, "The box"). So the harness keeps the vCPUs from halting:
// one spinner per CPU in the SCHED_IDLE class, which the kernel treats as
// an idle CPU when placing a waking task and preempts at once. The servers
// run unmodified; the spinners get the cycles nothing else wants.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spin is the body of a spinner process (csrload -spin <cpu>): pin, drop to
// SCHED_IDLE, and burn until the parent goes away. It refuses to spin at
// normal priority.
func spin(cpu int) error {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %v", cpu, e)
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", e)
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
		}
	}
	return nil
}

// startSpinners starts one spinner per CPU; stopAll ends them. A box that
// refuses SCHED_IDLE gets a warning and noisier numbers, not a failure.
func startSpinners() {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrload: no idle spinners:", err)
		return
	}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, "-spin", strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "csrload: no idle spinner on cpu", cpu, ":", err)
			continue
		}
		track(&proc{name: "spinner" + strconv.Itoa(cpu), cmd: cmd})
	}
}
