package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ipex/internal/promtext"
	"ipex/internal/trace"
)

// server is one ipexd subprocess listening on 127.0.0.1:0.
type server struct {
	cmd     *exec.Cmd
	url     string
	done    chan struct{} // closed once its stderr reaches EOF
	tail    []string      // last stderr lines, for diagnostics
	stopped bool
}

// ctl is the client for control requests (health checks, scrapes); load
// travels on the workloads' own clients.
var ctl = &http.Client{Timeout: 10 * time.Second}

// startServer launches ipexd with args, reads the address it bound from its
// first stderr line and waits until /healthz answers 200.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	// Should this process die without stopping it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ipexd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			// "ipexd listening on http://127.0.0.1:PORT (workers=...)"
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !announced {
				announced = true
				addr <- strings.Fields(rest)[0]
				continue
			}
			if len(s.tail) == 8 {
				s.tail = s.tail[1:]
			}
			s.tail = append(s.tail, line)
		}
		// The pipe must be drained before cmd.Wait; keep reading past errors.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case s.url = <-addr:
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("ipexd exited before listening: %s", strings.Join(s.tail, "; "))
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("ipexd did not announce its address within 20s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := ctl.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ipexd at %s never became healthy", s.url)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server with SIGINT, the way an operator stops it, and
// waits for it to exit; a server that does not drain within 15s is killed.
func (s *server) stop() error {
	if s == nil || s.stopped {
		return nil
	}
	s.stopped = true
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("ipexd %s: %v (%s)", s.url, err, strings.Join(s.tail, "; "))
	}
	return nil
}

// scrape reads the server's /metrics into a flat name→value map: counters
// and gauges by their Prometheus name, histograms as name_sum and
// name_count.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := ctl.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	exp, err := promtext.Parse(string(body))
	if err != nil {
		return nil, fmt.Errorf("parsing %s/metrics: %w", s.url, err)
	}
	out := map[string]float64{}
	for _, f := range exp.Families {
		for _, smp := range f.Samples {
			if len(smp.Labels) == 0 {
				out[smp.Name] = smp.Value
			}
		}
	}
	return out, nil
}

// metricDelta is after-before for one registry metric name (see
// trace.PromName); a metric not yet registered reads 0.
func metricDelta(before, after map[string]float64, name string) float64 {
	pn := trace.PromName(name)
	return after[pn] - before[pn]
}

// scrapeAll sums the scrapes of every server.
func scrapeAll(servers []*server) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, s := range servers {
		m, err := s.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// procSnap is a point-in-time reading of CPU time (this process plus the
// live servers), allocation and GC counters (this process).
type procSnap struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readProc(servers []*server) procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, s := range servers {
		if !s.stopped {
			cpu += procCPU(s.cmd.Process.Pid)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{cpu: cpu, alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// procCPU reads utime+stime of a process from /proc/<pid>/stat, in the
// kernel's fixed 100 Hz USER_HZ ticks.
func procCPU(pid int) time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// procStatusKiB reads one "Key: N kB" line of /proc/<pid>/status (pid 0
// means this process).
func procStatusKiB(pid int, key string) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				n, _ := strconv.ParseFloat(f[0], 64)
				return n
			}
		}
	}
	return 0
}

// peakRSSMiB is this process's VmHWM plus every live server's.
func peakRSSMiB(servers []*server) float64 {
	kib := procStatusKiB(0, "VmHWM")
	for _, s := range servers {
		if !s.stopped {
			kib += procStatusKiB(s.cmd.Process.Pid, "VmHWM")
		}
	}
	return kib / 1024
}
