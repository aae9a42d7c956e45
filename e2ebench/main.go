// Command e2ebench is the repository's wall-clock benchmark: it starts three
// musicd processes in multi-process mode on loopback, exactly as shipped
// (default flags, obs on), drives one workload through the Table I REST API
// as a closed loop of two clients, checks every critical read from outside,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	e2ebench -musicd <binary> -workload uniform-lan -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones: counts and server-side means scraped from the
// processes, plus the in-process layer ladder (ladder.go). run.sh builds
// musicd and this program from the tree and runs it. README.md explains the
// workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the closed loop's size: one per vCPU of the 2-vCPU host.
const clients = 2

// Run-shape constants. Setup repeats so setup_s can report a median;
// setupLimit bounds one setup and the warmup.
const (
	setupRuns   = 9
	warmup      = 2 * time.Second
	probeRounds = 300
	setupLimit  = 30 * time.Second
)

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		bin     = fs.String("musicd", "", "musicd binary built from this tree")
		dir     = fs.String("dir", "", "scratch directory for peers.json and process logs")
		wlName  = fs.String("workload", "", "workload: uniform-lan, readmostly-wan or hotkey-lan")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 20, "measured seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(*bin, *dir, *wlName, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(bin, dir, wlName string, seed int64, seconds int, traced bool) error {
	if bin == "" || dir == "" {
		return errors.New("-musicd and -dir are required")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: must be at least 1", seconds)
	}
	if err := checkNames(); err != nil {
		return err
	}
	wl, err := lookupWorkload(wlName)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	measure := time.Duration(seconds) * time.Second
	if traced {
		// The traced run splits its time between the processes and the ladder.
		measure /= 2
	}

	// Setup: spawn, wait for health, run one checked section. The last
	// cluster stays up for the measurement.
	var (
		setups []time.Duration
		cl     *cluster
		chk    *checker
	)
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	nSetup := setupRuns
	if traced {
		nSetup = 1
	}
	for i, retries := 0, 0; i < nSetup; i++ {
		if cl != nil {
			cl.stop()
		}
		chk = newChecker()
		start := time.Now()
		if cl, err = startCluster(bin, filepath.Join(dir, strconv.Itoa(i)), wl.oneWay); err != nil {
			return err
		}
		if err := firstSection(cl, hc, wl, chk); err != nil {
			// A process that lost its port to another socket is the
			// harness's fault, not the program's: set up again on fresh
			// ports, a bounded number of times.
			if errors.Is(err, errExited) && retries < 2 {
				fmt.Fprintf(os.Stderr, "e2ebench: setup %d: %v; retrying\n", i, err)
				retries++
				i--
				continue
			}
			return fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, time.Since(start))
	}

	rtt, err := probeRTT(wl.oneWay, probeRounds)
	if err != nil {
		return fmt.Errorf("rtt probe: %w", err)
	}

	stop := make(chan struct{})
	done := make(chan []*client, 1)
	var completed atomic.Int64
	go func() { done <- runClients(clients, wl, hc, cl.sites[0].base, chk, seed, stop, &completed) }()
	// Every path below calls stopClients exactly once.
	stopClients := func() []*client {
		close(stop)
		return <-done
	}
	time.Sleep(warmup)
	for deadline := time.Now().Add(setupLimit); completed.Load() < int64(wl.warmupSections); {
		if time.Now().After(deadline) {
			stopClients()
			return fmt.Errorf("warmup: %d of %d sections in %v", completed.Load(), wl.warmupSections, setupLimit)
		}
		time.Sleep(50 * time.Millisecond)
	}
	before, err := cl.snapshot(hc)
	if err != nil {
		stopClients()
		return err
	}
	cpu0, steal0 := selfCPU(), hostSteal()
	t0 := time.Now()
	blocks, err := measureBlocks(cl, t0, measure)
	t1 := time.Now()
	cpu1, steal1 := selfCPU(), hostSteal()
	if err != nil {
		stopClients()
		return err
	}
	after, err := cl.snapshot(hc)
	cls := stopClients()
	if err != nil {
		return err
	}
	w := cut(cls, t0, t1)
	if len(w.sections) == 0 {
		return fmt.Errorf("no section completed in the %v window", measure)
	}
	if wl.counter {
		if err := checkCounter(hc, cl.sites[0].base, wl, chk); err != nil {
			return err
		}
	}

	out := newMetricSet()
	if traced {
		processMetrics(out, w, before, after, cpu1-cpu0, rtt)
		cl.stop()
		cl = nil
		lad, err := newLadder(wl)
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		err = lad.run(measure, seed)
		lad.close()
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		ladderMetrics(out, lad.p50, us(quantile(rtt, 0.5)))
	} else {
		endToEndMetrics(out, setups, w, blocks, after)
	}

	failures := chk.failures()
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "e2ebench: correctness:", f)
	}
	lat := w.latencies()
	fmt.Printf("workload %s seed %d: %d sections in %.2fs, %d REST calls, %d failed (op_fail_ratio %.6f)\n",
		wl.name, seed, len(w.sections), w.t1.Sub(w.t0).Seconds(), w.attempted, w.failed,
		ratio(float64(w.failed), float64(w.attempted)))
	fmt.Printf("section latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over %d sections\n",
		ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)), ms(quantile(lat, 0.99)), len(lat))
	fmt.Printf("link rtt (idle probe, target %v): p50 %.1f us, p99 %.1f us\n",
		2*wl.oneWay, us(quantile(rtt, 0.5)), us(quantile(rtt, 0.99)))
	for i, b := range blocks {
		bw := cut(cls, b.t0, b.t1)
		lat := bw.latencies()
		fmt.Printf("block %d: %d sections, %.2f/s, p50 %.3f ms, p90 %.3f ms, cpu %.3f ms/section, steal %.1f%%\n",
			i, len(lat), float64(len(lat))/b.t1.Sub(b.t0).Seconds(), ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)),
			ratio(ms(b.cpu), float64(len(lat))), 100*float64(b.steal)/float64(b.t1.Sub(b.t0)))
	}
	fmt.Printf("host steal over the window: %.1f%% of one CPU (time the hypervisor ran other guests)\n",
		100*float64(steal1-steal0)/float64(t1.Sub(t0)))
	for _, name := range out.names {
		m := out.m[name]
		fmt.Printf("%-44s %14.4f %s\n", name, m.Value, m.Unit)
	}
	res := result{
		Correct:   len(failures) == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   out.m,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// firstSection waits for every site's health check, then runs a pair of
// checked sections on one key, a put and then a read back, until both
// succeed.
func firstSection(cl *cluster, hc *http.Client, wl *workload, chk *checker) error {
	deadline := time.Now().Add(setupLimit)
	if err := cl.waitHealthy(hc, setupLimit); err != nil {
		return err
	}
	// A plain put-then-read pair, whatever the workload's section shape.
	plain := *wl
	plain.gets, plain.counter = 1, false
	c := newClient(-1, &plain, hc, cl.sites[0].base, chk, 0)
	for !c.sectionOn("setup") || !c.sectionOn("setup") {
		if time.Now().After(deadline) {
			return fmt.Errorf("no section succeeded within %v", setupLimit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// checkCounter reads the shared counter in a fresh section: it must equal
// the number of increments that succeeded (up to the ones whose outcome is
// unknown).
func checkCounter(hc *http.Client, base string, wl *workload, chk *checker) error {
	c := newClient(-2, wl, hc, base, chk, 0)
	key := hotKey
	ref, err := c.api.create(key)
	if err != nil {
		return fmt.Errorf("final counter: %w", err)
	}
	if _, err := c.api.await(key, ref); err != nil {
		return fmt.Errorf("final counter: %w", err)
	}
	v, found, err := c.api.get(key, ref)
	if err != nil {
		return fmt.Errorf("final counter: %w", err)
	}
	if err := c.api.release(key, ref); err != nil {
		return fmt.Errorf("final counter: %w", err)
	}
	chk.read(key, v, found)
	n, _ := strconv.ParseInt(string(v), 10, 64)
	inc, unk := chk.increments.Load(), chk.uncertain.Load()
	if n < inc || n > inc+unk {
		chk.fail("final counter %d, want %d successful increments (+%d unknown)", n, inc, unk)
	}
	return nil
}

// blockLen is the length of one measurement block. The gated metrics are
// medians over the window's blocks, so a burst of noise from other guests
// on the shared host that hits one block does not move them.
const blockLen = 3 * time.Second

// block is one slice of the timed window, the three processes' CPU time
// spent in it, and the host's steal time over it.
type block struct {
	t0, t1     time.Time
	cpu, steal time.Duration
}

// measureBlocks sleeps through the window in blocks of about blockLen,
// reading the processes' CPU time from /proc at each boundary.
func measureBlocks(cl *cluster, t0 time.Time, measure time.Duration) ([]block, error) {
	n := int(measure / blockLen)
	if n < 1 {
		n = 1
	}
	prev, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	prevSteal := hostSteal()
	blocks := make([]block, n)
	start := t0
	for i := range blocks {
		time.Sleep(time.Until(t0.Add(measure * time.Duration(i+1) / time.Duration(n))))
		cur, err := cl.cpu()
		if err != nil {
			return nil, err
		}
		steal := hostSteal()
		end := time.Now()
		blocks[i] = block{t0: start, t1: end, cpu: cur - prev, steal: steal - prevSteal}
		start, prev, prevSteal = end, cur, steal
	}
	return blocks, nil
}

// hostSteal is the CPU time the hypervisor gave to other guests, summed
// over this host's CPUs, from /proc/stat; 0 where it is not reported. A run
// with high steal is suspect.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(n) * time.Second / clockTicks
}

// selfCPU is this process's user+system CPU time: the load generator's
// cost, so a generator-bound run shows.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
