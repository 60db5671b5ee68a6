package main

import (
	"bufio"
	"context"
	"encoding/json"
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

	"tictac/internal/service"
)

// buildDir holds everything the benchmark builds or writes, inside the
// checkout it runs from.
const buildDir = ".bench_build"

// buildDaemon compiles cmd/tictacd from the checkout in the working
// directory and returns the binary's path.
func buildDaemon() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "tictacd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tictacd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/tictacd: %w", err)
	}
	return bin, nil
}

// daemon is one running tictacd process.
type daemon struct {
	id  string
	url string
	cmd *exec.Cmd
	gc  *gcLog // GODEBUG=gctrace=1 output; nil unless traced
	// logDone is closed once the stderr reader has drained the pipe.
	logDone chan struct{}
}

// deployment is the set of daemons one workload runs against; the load
// goes to nodes[0].
type deployment struct {
	nodes []*daemon
}

// freePorts reserves n loopback ports by binding and releasing them. A
// fleet needs every member's URL before any member starts.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
		defer ln.Close()
	}
	return ports, nil
}

// startDeployment execs n daemons with default flags (a -fleet of n when n > 1)
// and returns once every one is healthy and, for a fleet, sees all n
// members alive. With gctrace, each daemon runs with GODEBUG=gctrace=1 and
// its GC lines are parsed.
func startDeployment(bin string, n int, gctrace bool) (*deployment, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	c := &deployment{}
	var peers []string
	for i, p := range ports {
		peers = append(peers, fmt.Sprintf("n%d=http://127.0.0.1:%d", i+1, p))
	}
	for i, p := range ports {
		d := &daemon{id: fmt.Sprintf("n%d", i+1), url: fmt.Sprintf("http://127.0.0.1:%d", p), logDone: make(chan struct{})}
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", p)}
		if n > 1 {
			args = append(args, "-fleet", "-node-id", d.id, "-peers", strings.Join(peers, ","))
		}
		d.cmd = exec.Command(bin, args...)
		// The daemon dies with the benchmark, even if the benchmark is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		d.cmd.Env = os.Environ()
		if gctrace {
			d.cmd.Env = append(d.cmd.Env, "GODEBUG=gctrace=1")
			d.gc = &gcLog{}
		}
		stderr, err := d.cmd.StderrPipe()
		if err != nil {
			c.stop()
			return nil, err
		}
		if err := d.cmd.Start(); err != nil {
			c.stop()
			return nil, fmt.Errorf("starting tictacd: %w", err)
		}
		go d.readLog(stderr)
		c.nodes = append(c.nodes, d)
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// readLog copies the daemon's stderr to ours, diverting GC trace lines into
// the gc log.
func (d *daemon) readLog(r io.Reader) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if d.gc != nil && d.gc.add(line, time.Now()) {
			continue
		}
		fmt.Fprintf(os.Stderr, "tictacd %s: %s\n", d.id, line)
	}
}

// waitReady polls until every daemon answers /healthz and, in a fleet,
// every member's /v1/fleet view has all members alive.
func (c *deployment) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for _, d := range c.nodes {
		for !d.ready(hc, len(c.nodes)) {
			if time.Now().After(deadline) {
				return fmt.Errorf("tictacd %s at %s not ready after %v", d.id, d.url, timeout)
			}
			select {
			case <-d.logDone:
				return fmt.Errorf("tictacd %s exited during start-up", d.id)
			default:
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func (d *daemon) ready(hc *http.Client, members int) bool {
	path := "/healthz"
	if members > 1 {
		path = "/v1/fleet"
	}
	resp, err := hc.Get(d.url + path)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if members == 1 {
		return true
	}
	var view struct {
		Live    int `json:"live"`
		Members []struct {
			Status string `json:"status"`
		} `json:"members"`
	}
	if json.NewDecoder(resp.Body).Decode(&view) != nil || view.Live != members || len(view.Members) != members {
		return false
	}
	for _, m := range view.Members {
		if m.Status != "alive" {
			return false
		}
	}
	return true
}

// stop interrupts every daemon (SIGINT skips the fleet drain a SIGTERM
// would start), kills any that has not exited within five seconds, and
// waits for each process and its log reader to end.
func (c *deployment) stop() {
	for _, d := range c.nodes {
		if d.cmd.Process != nil {
			_ = d.cmd.Process.Signal(os.Interrupt) // an exited process is fine
		}
	}
	for _, d := range c.nodes {
		if d.cmd.Process == nil {
			continue
		}
		exited := make(chan struct{})
		go func() {
			<-d.logDone // Wait closes the pipe, so drain it first
			_ = d.cmd.Wait()
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-exited
		}
	}
}

// metrics fetches every daemon's /metrics document.
func (c *deployment) metrics(ctx context.Context, hc *http.Client) ([]service.MetricsResponse, error) {
	out := make([]service.MetricsResponse, len(c.nodes))
	for i, d := range c.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("GET %s/metrics: %w", d.url, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding %s/metrics: %w", d.url, err)
		}
	}
	return out, nil
}

// procSample is one reading of the daemons' procfs counters, summed.
type procSample struct {
	cpuTicks int64 // utime + stime, in clock ticks
	hwmKB    int64 // VmHWM, the peak resident set
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// sample reads and sums every daemon's procfs counters.
func (c *deployment) sample() (procSample, error) {
	var s procSample
	for _, d := range c.nodes {
		pid := d.cmd.Process.Pid
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return s, err
		}
		ticks, err := parseStatCPU(string(stat))
		if err != nil {
			return s, err
		}
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return s, err
		}
		hwm, err := parseVmHWM(string(status))
		if err != nil {
			return s, err
		}
		s.cpuTicks += ticks
		s.hwmKB += hwm
	}
	return s, nil
}

// parseStatCPU returns utime + stime from the text of /proc/<pid>/stat.
// The command name in field 2 may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWM returns the VmHWM line of /proc/<pid>/status in kB.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// gcLog collects the GC cycles a daemon reports under GODEBUG=gctrace=1.
type gcLog struct {
	mu     sync.Mutex
	cycles []gcCycle
}

// gcCycle is one parsed gctrace line.
type gcCycle struct {
	at    time.Time // when the line arrived
	cpuMS float64   // GC CPU time, idle-priority marking excluded
}

// add records line if it is a gctrace line and reports whether it was.
func (g *gcLog) add(line string, at time.Time) bool {
	cpu, ok := parseGCTrace(line)
	if !ok {
		return false
	}
	g.mu.Lock()
	g.cycles = append(g.cycles, gcCycle{at: at, cpuMS: cpu})
	g.mu.Unlock()
	return true
}

// between returns the number of cycles, and their CPU milliseconds, whose
// lines arrived in [from, to).
func (g *gcLog) between(from, to time.Time) (n int, cpuMS float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.cycles {
		if !c.at.Before(from) && c.at.Before(to) {
			n++
			cpuMS += c.cpuMS
		}
	}
	return n, cpuMS
}

// parseGCTrace parses one runtime gctrace line,
//
//	gc 7 @1.234s 3%: 0.01+1.2+0.02 ms clock, 0.03+0.4/1.1/0.9+0.05 ms cpu, 4->5->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P
//
// and returns its GC CPU time in milliseconds: the two stop-the-world
// phases plus assist and background marking. Idle marking is left out: it
// runs only on processors that had nothing else to do.
func parseGCTrace(line string) (float64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	_, rest, ok := strings.Cut(line, " ms clock, ")
	if !ok {
		return 0, false
	}
	cpu, _, ok := strings.Cut(rest, " ms cpu")
	if !ok {
		return 0, false
	}
	phases := strings.Split(cpu, "+")
	if len(phases) != 3 {
		return 0, false
	}
	mark := strings.Split(phases[1], "/")
	if len(mark) != 3 {
		return 0, false
	}
	var total float64
	for _, s := range []string{phases[0], mark[0], mark[1], phases[2]} {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, false
		}
		total += v
	}
	return total, true
}
