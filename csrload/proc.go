package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one spawned child: a csrserver, or an idle spinner. Each runs in a
// process group of its own, so stopping it can never signal the generator
// and always reaches anything the child might have forked.
type proc struct {
	name    string
	url     string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{}
}

// live tracks every running child so a signal or a failed run can stop
// them all; no csrserver outlives the generator.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

func stopAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// spawn starts bin with args, its output captured in logDir/name.log.
func spawn(logDir, name, bin, addr string, args ...string) (*proc, error) {
	logPath := filepath.Join(logDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, logPath: logPath}
	track(p)
	return p, nil
}

// track reaps a started child when it exits and registers it with stopAll.
func track(p *proc) {
	p.exited = make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // the exit status of a stopped child carries nothing
		close(p.exited)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.Unlock()
}

// stop sends SIGTERM to the process group, waits for the graceful drain,
// and kills the group if the drain overruns. Safe to call twice.
func (p *proc) stop() {
	pgid := -p.cmd.Process.Pid
	_ = syscall.Kill(pgid, syscall.SIGTERM) // ESRCH once it has exited
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = syscall.Kill(pgid, syscall.SIGKILL)
		<-p.exited
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// logTail returns the last lines of the process log, for error reports.
func (p *proc) logTail() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return strings.TrimSpace(string(data))
}

// waitReady polls /readyz every 5 ms until it answers 200, the process
// exits, or the deadline passes.
func (p *proc) waitReady(client *http.Client, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	last := "no attempt"
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = resp.Status
		} else {
			last = err.Error()
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready; log tail:\n%s", p.name, p.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %v (%s); log tail:\n%s", p.name, deadline, last, p.logTail())
		case <-tick.C:
		}
	}
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them; the window before the server rebinds is the usual, accepted race.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU the process has consumed.
func (p *proc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for %s", p.name)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times for %s", p.name)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// memory returns a kB-valued field of /proc/<pid>/status in bytes: VmRSS, the
// resident set, or VmHWM, its high-water mark.
func (p *proc) memory(field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no %s for %s", field, p.name)
}

// cpuSteal returns the box's cumulative steal time and total CPU time, in
// clock ticks, from the first line of /proc/stat. Steal is the time a
// runnable vCPU waited for the host: the direct measure of how much the
// neighbours on a shared box disturbed a run.
func cpuSteal() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, field := range f[1:] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
