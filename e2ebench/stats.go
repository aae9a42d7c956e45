package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps reported metrics in the order they were added.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (s *metricSet) add(name, unit string, v float64) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// validName is the shape every metric name must have.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// End-to-end metrics, reported with --trace 0; per-layer metrics with
// --trace 1. The lists are the contract with BENCHMARK.json.
var endToEndNames = []string{
	"setup_s", "sections_per_s", "section_p50_ms", "section_p90_ms", "cpu_ms_per_section", "rss_mb",
}

// serverOps are core's music_op_latency labels, as metric-name suffixes.
var serverOps = []string{"createLockRef", "acquireLock:peek", "acquireLock:grant", "criticalGet", "criticalPut", "releaseLock"}

// rpcServices are the nettrans services counted per section.
var rpcServices = []string{"store.read", "store.apply", "store.prepare", "store.propose", "store.commit", "store.digest"}

func perLayerNames() []string {
	var out []string
	for _, op := range opNames {
		out = append(out, "rest."+op+".p50_ms")
	}
	for _, op := range opNames {
		out = append(out, "httpapi.overhead_us."+op)
	}
	for _, op := range serverOps {
		out = append(out, "core.server_mean_us."+metricOp(op))
	}
	out = append(out, "nettrans.rpcs_per_section")
	for _, svc := range rpcServices {
		out = append(out, "nettrans.rpcs_per_section."+metricOp(svc))
	}
	out = append(out,
		"store.quorum_gets_per_section", "store.one_gets_per_section", "store.puts_per_section",
		"store.cas_per_section", "store.read_bytes_per_section",
		"lock.polls_per_grant", "lock.wait.p50_ms",
	)
	for _, s := range siteNames {
		out = append(out, "musicd.cpu_ms_per_section."+s)
	}
	out = append(out, "loadgen.cpu_ms_per_section", "link.rtt_p50_us", "link.rtt_p99_us",
		"section_p99_ms", "op_fail_ratio")
	return append(out, ladderNames()...)
}

// metricOp turns a label such as "acquireLock:peek" or "store.read" into a
// metric-name component ("acquireLock-peek", "store-read").
func metricOp(s string) string { return strings.NewReplacer(":", "-", ".", "-").Replace(s) }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// window is what the clients logged between two instants.
type window struct {
	t0, t1    time.Time
	sections  []sectionRec
	calls     []callRec
	attempted int
	failed    int
}

func cut(cls []*client, t0, t1 time.Time) window {
	w := window{t0: t0, t1: t1}
	in := func(t time.Time) bool { return !t.Before(t0) && !t.After(t1) }
	for _, c := range cls {
		for _, s := range c.rec.sections {
			if in(s.end) {
				w.sections = append(w.sections, s)
			}
		}
		for _, call := range c.rec.calls {
			if in(call.end) {
				w.calls = append(w.calls, call)
				w.attempted++
				if call.failed {
					w.failed++
				}
			}
		}
	}
	return w
}

func (w window) latencies() []time.Duration {
	out := make([]time.Duration, len(w.sections))
	for i, s := range w.sections {
		out[i] = s.end.Sub(s.start)
	}
	return sortDurations(out)
}

// delta is the change of the metrics summed over the three processes.
type delta struct {
	before, after []series
}

// sum adds every series of the named metric whose labels contain all of
// the given label fragments, over all processes, after minus before.
func (d delta) sum(name string, labels ...string) float64 {
	return sumSeries(d.after, name, labels) - sumSeries(d.before, name, labels)
}

// histSum is the change in a histogram's total (count × mean), in µs.
func (d delta) histSum(name string, labels ...string) float64 {
	total := func(snap []series) float64 {
		t := 0.0
		for _, s := range snap {
			for k, v := range s {
				if matches(k, name+"_count", labels) {
					t += v * s[name+"_mean_us"+k[len(name+"_count"):]]
				}
			}
		}
		return t
	}
	return total(d.after) - total(d.before)
}

func sumSeries(snap []series, name string, labels []string) float64 {
	t := 0.0
	for _, s := range snap {
		for k, v := range s {
			if matches(k, name, labels) {
				t += v
			}
		}
	}
	return t
}

func matches(key, name string, labels []string) bool {
	if key != name && !strings.HasPrefix(key, name+"{") {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(key, l) {
			return false
		}
	}
	return true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processMetrics derives the per-layer metrics of the multi-process run
// from the window and the scrapes around it.
func processMetrics(out *metricSet, w window, before, after snapshot, loadCPU time.Duration, rtt []time.Duration) {
	n := float64(len(w.sections))
	var perOp [numOps][]time.Duration
	for _, c := range w.calls {
		if !c.failed {
			perOp[c.op] = append(perOp[c.op], c.d)
		}
	}
	d := delta{before: before.metrics, after: after.metrics}
	// serverMean is the server time per call of the first op; later ops
	// (an acquire's grant after its peek) add to the same calls.
	serverMean := func(ops ...string) float64 {
		sum := 0.0
		for _, op := range ops {
			sum += d.histSum("music_op_latency", `op="`+op+`"`)
		}
		return ratio(sum, d.sum("music_op_latency_count", `op="`+ops[0]+`"`))
	}
	serverFor := [numOps][]string{
		opCreate:  {"createLockRef"},
		opAcquire: {"acquireLock:peek", "acquireLock:grant"},
		opGet:     {"criticalGet"},
		opPut:     {"criticalPut"},
		opRelease: {"releaseLock"},
	}
	for op := opKind(0); op < numOps; op++ {
		out.add("rest."+opNames[op]+".p50_ms", "ms", ms(quantile(sortDurations(perOp[op]), 0.5)))
	}
	for op := opKind(0); op < numOps; op++ {
		mean := 0.0
		for _, x := range perOp[op] {
			mean += us(x)
		}
		mean = ratio(mean, float64(len(perOp[op])))
		out.add("httpapi.overhead_us."+opNames[op], "us", mean-serverMean(serverFor[op]...))
	}
	for _, op := range serverOps {
		out.add("core.server_mean_us."+metricOp(op), "us", serverMean(op))
	}
	out.add("nettrans.rpcs_per_section", "count", ratio(d.sum("nettrans_rpc_latency_count"), n))
	for _, svc := range rpcServices {
		out.add("nettrans.rpcs_per_section."+metricOp(svc), "count",
			ratio(d.sum("nettrans_rpc_latency_count", `svc="`+svc+`"`), n))
	}
	out.add("store.quorum_gets_per_section", "count", ratio(d.sum("store_get_latency_count", `cons="QUORUM"`), n))
	out.add("store.one_gets_per_section", "count", ratio(d.sum("store_get_latency_count", `cons="ONE"`), n))
	out.add("store.puts_per_section", "count", ratio(d.sum("store_put_latency_count"), n))
	out.add("store.cas_per_section", "count", ratio(d.sum("store_cas_latency_count"), n))
	out.add("store.read_bytes_per_section", "B", ratio(d.sum("store_read_bytes_total"), n))

	polls, waits := 0, make([]time.Duration, 0, len(w.sections))
	for _, s := range w.sections {
		polls += s.polls
		waits = append(waits, s.wait)
	}
	out.add("lock.polls_per_grant", "count", ratio(float64(polls), n))
	out.add("lock.wait.p50_ms", "ms", ms(quantile(sortDurations(waits), 0.5)))
	for i, s := range siteNames {
		out.add("musicd.cpu_ms_per_section."+s, "ms", ratio(ms(after.procs[i].cpu-before.procs[i].cpu), n))
	}
	out.add("loadgen.cpu_ms_per_section", "ms", ratio(ms(loadCPU), n))
	out.add("link.rtt_p50_us", "us", us(quantile(rtt, 0.5)))
	out.add("link.rtt_p99_us", "us", us(quantile(rtt, 0.99)))
	out.add("section_p99_ms", "ms", ms(quantile(w.latencies(), 0.99)))
	out.add("op_fail_ratio", "ratio", ratio(float64(w.failed), float64(w.attempted)))
}

// endToEndMetrics derives the gated metrics of the multi-process run.
// Throughput and the latency percentiles are each taken per block and
// combined by stealFree. CPU per section is the plain median over blocks:
// steal time is not charged to the processes, and correcting for it
// widened the spread between runs.
func endToEndMetrics(out *metricSet, setup []time.Duration, w window, blocks []block, after snapshot) {
	secs := make([]float64, len(setup))
	for i, s := range setup {
		secs[i] = s.Seconds()
	}
	var rate, p50, p90, cpu, steal []float64
	for _, b := range blocks {
		var lat []time.Duration
		for _, s := range w.sections {
			if !s.end.Before(b.t0) && s.end.Before(b.t1) {
				lat = append(lat, s.end.Sub(s.start))
			}
		}
		sortDurations(lat)
		n := float64(len(lat))
		span := b.t1.Sub(b.t0)
		rate = append(rate, n/span.Seconds())
		p50 = append(p50, ms(quantile(lat, 0.5)))
		p90 = append(p90, ms(quantile(lat, 0.9)))
		cpu = append(cpu, ratio(ms(b.cpu), n))
		steal = append(steal, float64(b.steal)/float64(span))
	}
	var rss int64
	for _, p := range after.procs {
		rss += p.rss
	}
	out.add("setup_s", "s", median(secs))
	out.add("sections_per_s", "1/s", stealFree(rate, steal, -1))
	out.add("section_p50_ms", "ms", stealFree(p50, steal, +1))
	out.add("section_p90_ms", "ms", stealFree(p90, steal, +1))
	out.add("cpu_ms_per_section", "ms", median(cpu))
	out.add("rss_mb", "MB", float64(rss)/(1<<20))
}

// stealFree combines one metric's per-block values into the value the run
// would have shown with no other guest on the host. steal is each block's
// hypervisor steal time as a share of one CPU. The host is shared, and
// steal varied from 0 to over 0.8 between and within runs, moving every
// timing with it.
//
// Only the blocks with steal up to maxFitSteal count, or the minFitBlocks
// blocks with the least steal when fewer qualify: timings grow faster than
// linearly with steal beyond that, and a line fitted there over-corrects.
// The metric's sensitivity to steal is the median of the slopes between
// pairs of those blocks whose steal differs by at least minStealGap (a
// Theil-Sen fit, which one outlying block cannot swing). Each of those
// blocks' values is corrected to zero steal along that slope, and the
// median of the corrected values is the result. Steal can only slow the
// program, so a slope of the wrong sign (worse is +1 for lower-is-better
// metrics, -1 for throughput) counts as zero, as does a run whose steal
// hardly varied; the result is then the plain median of those blocks.
func stealFree(vals, steal []float64, worse float64) float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && (n < minFitBlocks || steal[idx[n]] <= maxFitSteal) {
		n++
	}
	idx = idx[:n]
	var slopes []float64
	for a, i := range idx {
		for _, j := range idx[a+1:] {
			if d := steal[j] - steal[i]; math.Abs(d) >= minStealGap {
				slopes = append(slopes, (vals[j]-vals[i])/d)
			}
		}
	}
	slope := median(slopes)
	if slope*worse < 0 {
		slope = 0
	}
	corrected := make([]float64, len(idx))
	for k, i := range idx {
		corrected[k] = vals[i] - slope*steal[i]
	}
	return median(corrected)
}

// Block selection and fit limits of stealFree, as shares of one CPU.
const (
	maxFitSteal  = 0.4
	minFitBlocks = 5
	minStealGap  = 0.02
)

// checkNames verifies the metric-name contract of both lists.
func checkNames() error {
	if len(endToEndNames) > 16 {
		return fmt.Errorf("%d end-to-end metrics, at most 16", len(endToEndNames))
	}
	pl := perLayerNames()
	if len(pl) > 128 {
		return fmt.Errorf("%d per-layer metrics, at most 128", len(pl))
	}
	seen := make(map[string]bool)
	for _, n := range append(append([]string(nil), endToEndNames...), pl...) {
		if !validName.MatchString(n) {
			return fmt.Errorf("bad metric name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	return nil
}
