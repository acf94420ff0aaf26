package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procStats is what one finished child cost.
type procStats struct {
	Wall   time.Duration
	CPU    time.Duration // user + system, from the kernel's rusage
	MaxRSS int64         // bytes: the child's peak resident set (VmHWM)
}

// peakRSS follows a running child's VmHWM in /proc/<pid>/status — the
// high-water mark of its own address space. rusage's ru_maxrss cannot
// serve: Linux starts an exec'd child's maxrss at its parent's
// high-water mark, so every child of a benchmark that once held a
// large store would report at least that much. The last read before
// exit stands; the poll period bounds how late in the run a peak may
// be missed.
type peakRSS struct {
	pid  int
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func watchRSS(pid int) *peakRSS {
	w := &peakRSS{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			w.read()
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// read samples VmHWM once; a vanished process leaves the peak as is.
func (w *peakRSS) read() {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", w.pid))
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kib); err == nil && kib*1024 > w.peak.Load() {
				w.peak.Store(kib * 1024)
			}
		}
	}
}

// finish stops the poller and returns the peak seen.
func (w *peakRSS) finish() int64 {
	close(w.stop)
	<-w.done
	return w.peak.Load()
}

func statsOf(ps *os.ProcessState, wall time.Duration, rss int64) procStats {
	return procStats{Wall: wall, CPU: ps.UserTime() + ps.SystemTime(), MaxRSS: rss}
}

// lockedBuffer collects a child's output from its copying goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) tail() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if i := len(s) - 2000; i > 0 {
		s = "..." + s[i:]
	}
	return s
}

// runTool runs a command to completion and returns its accounting. A
// non-zero exit is an error naming the exit code and the output's tail.
func runTool(ctx context.Context, bin string, args ...string) (procStats, error) {
	var out lockedBuffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procStats{}, fmt.Errorf("%s: %w", bin, err)
	}
	rss := watchRSS(cmd.Process.Pid)
	err := cmd.Wait()
	wall := time.Since(start)
	st := statsOf(cmd.ProcessState, wall, rss.finish())
	if err != nil {
		return st, fmt.Errorf("%s exited with code %d: %s", bin, cmd.ProcessState.ExitCode(), out.tail())
	}
	return st, nil
}

// daemon is a running offnetd child.
type daemon struct {
	cmd    *exec.Cmd
	out    lockedBuffer
	start  time.Time
	addr   string
	rss    *peakRSS
	maxRSS int64
	done   chan struct{} // closed once the output reader has drained
}

// startDaemon starts offnetd and waits until it names its listen
// address on standard output.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = &d.out
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	d.rss = watchRSS(d.cmd.Process.Pid)
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(&d.out, line)
			if rest, ok := strings.CutPrefix(line, "serving on http://"); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("offnetd did not start: %s", d.out.tail())
}

// stop sends SIGTERM, waits for exit (SIGKILL after 10s) and returns
// the child's accounting over its whole life.
func (d *daemon) stop() (procStats, error) {
	if d.cmd.ProcessState == nil {
		d.rss.read()
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait reports it
		// Drain standard output before Wait closes the pipe.
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		err := d.cmd.Wait()
		d.maxRSS = d.rss.finish()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return procStats{}, err
		}
		if err != nil {
			return statsOf(d.cmd.ProcessState, time.Since(d.start), d.maxRSS), fmt.Errorf("offnetd exited with code %d: %s", d.cmd.ProcessState.ExitCode(), d.out.tail())
		}
	}
	return statsOf(d.cmd.ProcessState, time.Since(d.start), d.maxRSS), nil
}
