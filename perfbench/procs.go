package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one measured program (iprism-serve or iprism-gateway) started
// by the benchmark. Its standard error goes to a log file in the run
// directory so a failed start can be diagnosed.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startChild runs bin with args, logging to dir/<name>.log.
func startChild(dir, name, bin string, args ...string) (*child, error) {
	lf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("%s log: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: lf, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	return c, nil
}

// waitAddr polls the child's addr-file until it holds the bound address.
// The programs write it by rename, so a non-empty read is complete. The
// poll is fine-grained because set-up of a server takes only milliseconds.
func (c *child) waitAddr(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case err := <-c.done:
			c.done <- err
			return "", fmt.Errorf("%s exited before listening: %v (see %s)", c.name, err, c.log.Name())
		case <-time.After(100 * time.Microsecond):
		}
	}
	return "", fmt.Errorf("%s did not listen within %v", c.name, timeout)
}

// stop sends SIGTERM (the programs drain and flush their journals), waits,
// and kills the process if it has not exited within the grace period.
func (c *child) stop() error {
	if c == nil {
		return nil
	}
	defer c.log.Close()
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is handled by the wait below
	select {
	case err := <-c.done:
		if err != nil && !terminatedBySIGTERM(err) {
			return fmt.Errorf("%s exit: %w", c.name, err)
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill() // the wait below reports the outcome
		<-c.done
		return fmt.Errorf("%s did not drain within 15s; killed", c.name)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// terminatedBySIGTERM reports a child that died of the signal itself: a
// program stopped right after it began listening may not have installed
// its drain handler yet, which is a clean stop all the same.
func terminatedBySIGTERM(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads a process's user plus system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuOf sums the CPU seconds of several processes.
func cpuOf(cs ...*child) (float64, error) {
	total := 0.0
	for _, c := range cs {
		v, err := cpuSeconds(c.pid())
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", c.name, err)
		}
		total += v
	}
	return total, nil
}

// rssOf sums the peak resident sets of several processes.
func rssOf(cs ...*child) (float64, error) {
	total := 0.0
	for _, c := range cs {
		v, err := peakRSSMB(c.pid())
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", c.name, err)
		}
		total += v
	}
	return total, nil
}

// waitHealthy polls GET url until it answers 200.
func waitHealthy(hc *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			drainClose(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within %v (last error %v)", url, timeout, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// machineCPU reads, summed over this machine's CPUs, the time they ran
// anything (user, nice, system, irq, softirq) and the time the host took
// them away while they had something to run (steal), from /proc/stat.
func machineCPU() (busy, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat")
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseFloat(f[i], 64); err != nil {
			return 0, 0, fmt.Errorf("malformed /proc/stat: %w", err)
		}
	}
	// Fields: user nice system idle iowait irq softirq steal.
	busy = v[1] + v[2] + v[3] + v[6] + v[7]
	return busy / clockTicks, v[8] / clockTicks, nil
}
