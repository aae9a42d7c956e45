package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// siteNames are the three sites of the deployment, in peers.json order. The
// load generator talks only to the first, so it coordinates every section
// and the other two act as replicas.
var siteNames = []string{"site-a", "site-b", "site-c"}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI this benchmark runs on.
const clockTicks = 100

// siteProc is one running musicd process.
type siteProc struct {
	name   string
	cmd    *exec.Cmd
	base   string // REST base URL
	log    *os.File
	exited chan struct{} // closed once the process has exited and been reaped
}

// errExited reports a musicd process that exited during setup, as one does
// when another socket took its port between reservation and bind.
var errExited = errors.New("musicd exited")

// cluster is three musicd processes in multi-process mode on loopback, with
// optional delay lines in front of each transport listener.
type cluster struct {
	sites []*siteProc
	lines []*delayLine
}

// startCluster spawns the three processes with default flags (obs on; no
// -leases, -adaptive or -history). With oneWay > 0, peers.json points every
// node at a delay line in front of its real transport socket, so every
// inter-site message pays oneWay in each direction.
func startCluster(bin, dir string, oneWay time.Duration) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The ports stay bound until the delay lines have their own listeners,
	// so a line cannot be handed a port a process is about to bind.
	ports, release, err := reservePorts(2 * len(siteNames))
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	type peer struct {
		ID   int    `json:"id"`
		Site string `json:"site"`
		Addr string `json:"addr"`
	}
	peers := make([]peer, len(siteNames))
	listen := make([]string, len(siteNames))
	for i, s := range siteNames {
		listen[i] = fmt.Sprintf("127.0.0.1:%d", ports[i])
		addr := listen[i]
		if oneWay > 0 {
			line, err := newDelayLine(listen[i], oneWay)
			if err != nil {
				release()
				c.stop()
				return nil, err
			}
			c.lines = append(c.lines, line)
			addr = line.Addr()
		}
		peers[i] = peer{ID: i, Site: s, Addr: addr}
	}
	release()
	data, err := json.Marshal(peers)
	if err != nil {
		c.stop()
		return nil, err
	}
	peersPath := filepath.Join(dir, "peers.json")
	if err := os.WriteFile(peersPath, data, 0o644); err != nil {
		c.stop()
		return nil, err
	}
	for i, s := range siteNames {
		httpAddr := fmt.Sprintf("127.0.0.1:%d", ports[len(siteNames)+i])
		logf, err := os.Create(filepath.Join(dir, s+".log"))
		if err != nil {
			c.stop()
			return nil, err
		}
		cmd := exec.Command(bin, "-peers", peersPath, "-site", s, "-listen", listen[i], "-addr", httpAddr)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The processes die with the benchmark even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			c.stop()
			return nil, fmt.Errorf("start %s: %w", s, err)
		}
		sp := &siteProc{name: s, cmd: cmd, base: "http://" + httpAddr, log: logf, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait()
			close(sp.exited)
		}()
		c.sites = append(c.sites, sp)
	}
	return c, nil
}

// stop kills every process, waits for each to exit and closes the lines.
func (c *cluster) stop() {
	for _, s := range c.sites {
		_ = s.cmd.Process.Kill()
		<-s.exited
		s.log.Close()
	}
	c.sites = nil
	for _, l := range c.lines {
		l.Close()
	}
	c.lines = nil
}

// waitHealthy polls every site's /v1/health until all answer 200.
func (c *cluster) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, s := range c.sites {
		for {
			resp, err := hc.Get(s.base + "/v1/health")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-s.exited:
				return fmt.Errorf("%s: %w (see %s)", s.name, errExited, s.log.Name())
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after %v: %v", s.name, timeout, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// procSample is one process's cumulative CPU time and resident set.
type procSample struct {
	cpu time.Duration
	rss int64 // bytes
}

// sampleProc reads utime+stime and RSS from /proc/<pid>/stat.
func sampleProc(pid int) (procSample, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return procSample{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime, stime and rss are fields 14, 15, 24.
	if len(f) < 22 {
		return procSample{}, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	rss, err3 := strconv.ParseInt(f[21], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procSample{}, fmt.Errorf("/proc/%d/stat: bad numbers", pid)
	}
	return procSample{
		cpu: time.Duration(ut+st) * time.Second / clockTicks,
		rss: rss * int64(os.Getpagesize()),
	}, nil
}

// cpu is the three processes' total CPU time so far.
func (c *cluster) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range c.sites {
		ps, err := sampleProc(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += ps.cpu
	}
	return total, nil
}

// snapshot is every site's /proc sample and /metrics series at one instant.
type snapshot struct {
	procs   []procSample
	metrics []series
}

func (c *cluster) snapshot(hc *http.Client) (snapshot, error) {
	var s snapshot
	for _, p := range c.sites {
		ps, err := sampleProc(p.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, ps)
		m, err := scrapeMetrics(hc, p.base)
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.name, err)
		}
		s.metrics = append(s.metrics, m)
	}
	return s, nil
}

// series maps one exposition line's name-with-labels to its value, e.g.
// `music_op_latency_count{op="criticalGet",site="site-a"}` → 12.
type series map[string]float64

func scrapeMetrics(hc *http.Client, base string) (series, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(bufio.NewScanner(resp.Body))
}

func parseMetrics(sc *bufio.Scanner) (series, error) {
	out := make(series)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// reservePorts binds n distinct loopback ports and returns them with the
// function that releases them for the processes to bind.
func reservePorts(n int) (ports []int, release func(), err error) {
	lis := make([]net.Listener, 0, n)
	release = func() {
		for _, l := range lis {
			l.Close()
		}
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			release()
			return nil, nil, err
		}
		lis = append(lis, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, release, nil
}
