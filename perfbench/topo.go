package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one launched osdiv process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port it listens on
	done chan error
	log  *os.File
}

var listenRE = regexp.MustCompile(`on http://([0-9.]+:[0-9]+)`)

// startProc launches bin with args, listening on an ephemeral port, and
// returns once the process has logged its listen address. The child is
// killed if the benchmark dies first.
func startProc(name, bin, logDir string, args ...string) (*proc, error) {
	lf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	cmd.Stdout = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan error, 1), log: lf}
	addrc := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(lf, line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-copied // Wait must not race the pipe reader
		p.done <- cmd.Wait()
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case err := <-p.done:
		lf.Close()
		return nil, fmt.Errorf("%s exited before listening: %v (see %s)", name, err, lf.Name())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report a listen address", name)
	}
}

func (p *proc) url() string { return "http://" + p.addr }

// stop sends SIGTERM, waits for the drain, kills after a deadline, and
// returns once the process has exited and its port is free again.
func (p *proc) stop() error {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
	if p.addr == "" {
		return nil
	}
	for i := 0; ; i++ {
		ln, err := net.Listen("tcp", p.addr)
		if err == nil {
			return ln.Close()
		}
		if i == 100 {
			return fmt.Errorf("%s: port %s still busy after exit: %w", p.name, p.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clkTck = 100

// cpuMS reads user+sys CPU time of pid from /proc/<pid>/stat.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) * 1000 / clkTck, nil
}

// hwmMB reads VmHWM (peak resident set) of pid in MB.
func hwmMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// topology is the set of processes one workload runs against; front is
// where the client sends requests.
type topology struct {
	procs []*proc
	front *proc
}

func (t *topology) stop() error {
	var errs []error
	// Front first, so a gateway never sees its backends vanish mid-drain.
	for i := len(t.procs) - 1; i >= 0; i-- {
		errs = append(errs, t.procs[i].stop())
	}
	return errors.Join(errs...)
}

func (t *topology) cpuMS() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		ms, err := cpuMS(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += ms
	}
	return sum, nil
}

func (t *topology) hwmMB() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		mb, err := hwmMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(c *http.Client, base string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/readyz", nil)
		resp, err := c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %s (last error: %v)", base, timeout, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// launch starts the workload's topology and waits until it is ready.
func launch(name string, in *inputs, bins binaries, runDir string) (*topology, error) {
	t := &topology{}
	start := func(pname string, args ...string) (*proc, error) {
		p, err := startProc(pname, bins.osdiv, runDir, args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, p)
		return p, nil
	}
	const listen = "127.0.0.1:0"
	var err error
	switch name {
	case "hot-tables":
		t.front, err = start("serve", "-snapshot", in.snapshot, "-workers", "2", "serve", "-addr", listen)
	case "sql-cold":
		t.front, err = start("serve", "-db", in.db, "-workers", "2", "serve", "-addr", listen)
	case "gateway-cold":
		var backends []string
		for i := 1; i <= 2; i++ {
			p, err := start(fmt.Sprintf("shard%d", i), "-synthetic", strconv.Itoa(corpusEntries),
				"-workers", "1", "serve", "-shard", fmt.Sprintf("%d/2", i), "-addr", listen)
			if err != nil {
				return nil, err
			}
			backends = append(backends, p.url())
		}
		t.front, err = start("gateway", "gateway", "-backends", strings.Join(backends, ","), "-addr", listen)
	case "refresh":
		tee := filepath.Join(runDir, "tee.osds")
		t.front, err = start("serve", "-snapshot", in.snapshot, "-workers", "2", "serve", "-addr", listen,
			"-watch", in.deltaDir, "-watch-interval", "0", "-tee", tee)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	c := &http.Client{Timeout: 60 * time.Second}
	defer c.CloseIdleConnections()
	if err := waitReady(c, t.front.url(), 120*time.Second); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}
