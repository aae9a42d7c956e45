package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix. The program sees only the REST requests a
// workload generates; the seed fixes every key and value.
type workload struct {
	name string
	// oneWay is the injected delay each inter-site message pays per
	// direction (half the RTT between every site pair).
	oneWay time.Duration
	// gets is the number of critical gets in each section, before its put.
	gets int
	// keys builds one client's key sequence from its seeded source.
	keys func(r *rand.Rand) func() string
	// counter makes the put write the value read plus one (a shared counter)
	// instead of a fresh 256-byte value.
	counter bool
	// warmupSections is how many sections must complete before timing
	// starts, on top of the fixed warmup.
	warmupSections int
}

// hotKey is hotkey-lan's shared counter.
const hotKey = "hot"

// valueSize is the size of every non-counter critical put.
const valueSize = 256

var workloads = []*workload{
	// CPU-bound: fresh keys, no delay, no lock waits, so every layer's CPU
	// cost sets throughput.
	{
		name: "uniform-lan",
		gets: 1,
		keys: func(r *rand.Rand) func() string {
			return func() string { return fmt.Sprintf("u%05d", r.Intn(100000)) }
		},
	},
	// Round-trip-bound: 2 ms RTT between sites and 7 gets per section, so
	// round counts set latency.
	{
		name:   "readmostly-wan",
		oneWay: time.Millisecond,
		gets:   7,
		keys: func(r *rand.Rand) func() string {
			z := rand.NewZipf(r, 1.01, 1, 399)
			return func() string { return fmt.Sprintf("z%03d", z.Uint64()) }
		},
	},
	// Contended: both clients increment one counter, so the lock queue,
	// polling and grant handoff dominate.
	{
		name:    "hotkey-lan",
		gets:    1,
		keys:    func(*rand.Rand) func() string { return func() string { return hotKey } },
		counter: true,
		// Every section leaves a tombstoned grant cell in the key's lock row,
		// so the hot key's sections slow down as it accumulates them. Timing
		// starts at the same row size in every run, after the early phase
		// where the two clients' interleaving still varies from run to run.
		warmupSections: 800,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// REST operations of a section, in order.
type opKind int

const (
	opCreate opKind = iota
	opAcquire
	opGet
	opPut
	opRelease
	numOps
)

var opNames = [numOps]string{"create", "acquire", "get", "put", "release"}

// callRec is one REST call as the client saw it.
type callRec struct {
	op     opKind
	d      time.Duration
	end    time.Time
	failed bool
}

// sectionRec is one completed section: POST lock to DELETE lock.
type sectionRec struct {
	start, end time.Time
	wait       time.Duration // from the lockRef's creation until it held the lock
	polls      int           // acquire calls until holder
}

// recorder is one client's log; only its client appends to it.
type recorder struct {
	calls    []callRec
	sections []sectionRec
}

// restClient issues Table I calls to one site and logs each one.
type restClient struct {
	hc   *http.Client
	base string
	rec  *recorder
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// call performs one request and logs it; a status outside want fails it.
func (c *restClient) call(op opKind, method, path string, body []byte, want ...int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	status, out, err := c.do(method, path, rd)
	end := time.Now()
	if err == nil {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(out))
		for _, w := range want {
			if status == w {
				err = nil
			}
		}
	}
	c.rec.calls = append(c.rec.calls, callRec{op: op, d: end.Sub(start), end: end, failed: err != nil})
	return status, out, err
}

func (c *restClient) do(method, path string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: body: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

func (c *restClient) create(key string) (int64, error) {
	_, out, err := c.call(opCreate, "POST", "/v1/locks/"+key, nil, http.StatusCreated)
	if err != nil {
		return 0, err
	}
	var body struct {
		LockRef int64 `json:"lockRef"`
	}
	if err := json.Unmarshal(out, &body); err != nil || body.LockRef <= 0 {
		return 0, fmt.Errorf("createLockRef %s: bad body %q", key, out)
	}
	return body.LockRef, nil
}

// await polls acquire until ref holds the lock and returns the number of
// polls.
func (c *restClient) await(key string, ref int64) (int, error) {
	path := fmt.Sprintf("/v1/locks/%s/%d", key, ref)
	polls := 0
	err := pollSchedule(func() (bool, error) {
		polls++
		_, out, err := c.call(opAcquire, "GET", path, nil, http.StatusOK)
		if err != nil {
			return false, err
		}
		var body struct {
			Holder bool `json:"holder"`
		}
		if err := json.Unmarshal(out, &body); err != nil {
			return false, fmt.Errorf("acquireLock %s/%d: bad body %q", key, ref, out)
		}
		return body.Holder, nil
	})
	return polls, err
}

// pollSchedule calls poll until it reports true or fails, sleeping between
// calls on music.Client.AwaitLock's schedule: 1 ms, doubling to 64 ms. It
// gives up after 10 s.
func pollSchedule(poll func() (bool, error)) error {
	backoff := time.Millisecond
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, err := poll()
		if err != nil || ok {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("not the lock holder after 10s")
		}
		time.Sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

// get is a critical get; found is false on 404 (no value).
func (c *restClient) get(key string, ref int64) (value []byte, found bool, err error) {
	status, out, err := c.call(opGet, "GET", fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref), nil,
		http.StatusOK, http.StatusNotFound)
	if err != nil {
		return nil, false, err
	}
	if status == http.StatusNotFound {
		return nil, false, nil
	}
	return out, true, nil
}

func (c *restClient) put(key string, ref int64, value []byte) error {
	_, _, err := c.call(opPut, "PUT", fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref), value, http.StatusNoContent)
	return err
}

func (c *restClient) release(key string, ref int64) error {
	_, _, err := c.call(opRelease, "DELETE", fmt.Sprintf("/v1/locks/%s/%d", key, ref), nil, http.StatusNoContent)
	return err
}

// abandon force-releases a lockRef whose section failed, so one failure
// cannot wedge the key for later sections.
func (c *restClient) abandon(key string, ref int64) {
	_, _, _ = c.call(opRelease, "DELETE", fmt.Sprintf("/v1/locks/%s/%d?forced=1", key, ref), nil, http.StatusNoContent)
}

// checker verifies critical reads from outside the program: every critical
// get must return the bytes this run last put for that key under its lock,
// or 404 for a key never written. A put whose call failed may or may not
// have landed, so until the next read settles it either outcome is allowed.
type checker struct {
	mu         sync.Mutex
	want       map[string]*expect
	violations []string
	increments atomic.Int64 // counter workload: puts that succeeded
	uncertain  atomic.Int64 // counter workload: puts whose outcome is unknown
}

// expect is the set of values a read of one key may return.
type expect struct {
	vals     []string
	absentOK bool
}

func newChecker() *checker { return &checker{want: make(map[string]*expect)} }

// read checks one critical get and narrows the key's allowed values to
// what was observed. It reports whether the read was allowed.
func (c *checker) read(key string, value []byte, found bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.want[key]
	if !ok {
		e = &expect{absentOK: true}
	}
	if !found {
		if e.absentOK {
			c.want[key] = &expect{absentOK: true}
			return true
		}
		c.violate("get %s: 404, want %q", key, e.vals)
		return false
	}
	for _, v := range e.vals {
		if v == string(value) {
			c.want[key] = &expect{vals: []string{v}}
			return true
		}
	}
	c.violate("get %s: stale or foreign value %q, want one of %q (absent allowed: %t)", key, clip(value), e.vals, e.absentOK)
	return false
}

// wrote records a put: landed says its call succeeded.
func (c *checker) wrote(key string, value []byte, landed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if landed {
		c.want[key] = &expect{vals: []string{string(value)}}
		return
	}
	e, ok := c.want[key]
	if !ok {
		e = &expect{absentOK: true}
		c.want[key] = e
	}
	e.vals = append(e.vals, string(value))
}

// fail records a violation found outside read and wrote.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violate(format, args...)
}

// violate records a violation; the caller holds c.mu.
func (c *checker) violate(format string, args ...any) {
	if len(c.violations) < 20 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

func clip(b []byte) string {
	if len(b) > 48 {
		return string(b[:48]) + "..."
	}
	return string(b)
}

// client is one closed-loop load generator: it starts its next section
// only when the previous one has finished.
type client struct {
	id   int
	wl   *workload
	api  *restClient
	chk  *checker
	next func() string
	seq  int
	rec  recorder
}

func newClient(id int, wl *workload, hc *http.Client, base string, chk *checker, seed int64) *client {
	c := &client{id: id, wl: wl, chk: chk}
	c.api = &restClient{hc: hc, base: base, rec: &c.rec}
	c.next = wl.keys(rand.New(rand.NewSource(seed*1000003 + int64(id))))
	return c
}

// section runs one critical section on the next key and reports whether it
// completed. Failed sections are force-released and not logged as sections.
func (c *client) section() bool {
	return c.sectionOn(c.next())
}

func (c *client) sectionOn(key string) bool {
	start := time.Now()
	ref, err := c.api.create(key)
	if err != nil {
		return false
	}
	created := time.Now()
	polls, err := c.api.await(key, ref)
	if err != nil {
		c.api.abandon(key, ref)
		return false
	}
	wait := time.Since(created)
	var last []byte
	found := false
	for i := 0; i < c.wl.gets; i++ {
		v, ok, err := c.api.get(key, ref)
		if err != nil {
			c.api.abandon(key, ref)
			return false
		}
		c.chk.read(key, v, ok)
		last, found = v, ok
	}
	value, err := c.value(key, last, found)
	if err != nil {
		c.chk.fail("%v", err)
		c.api.abandon(key, ref)
		return false
	}
	err = c.api.put(key, ref, value)
	c.chk.wrote(key, value, err == nil)
	if c.wl.counter {
		if err == nil {
			c.chk.increments.Add(1)
		} else {
			c.chk.uncertain.Add(1)
		}
	}
	if err == nil {
		err = c.api.release(key, ref)
	}
	if err != nil {
		c.api.abandon(key, ref)
		return false
	}
	c.rec.sections = append(c.rec.sections, sectionRec{start: start, end: time.Now(), wait: wait, polls: polls})
	return true
}

// value is the section's put: the counter plus one, or 256 bytes unique to
// this client and section.
func (c *client) value(key string, last []byte, found bool) ([]byte, error) {
	c.seq++
	if c.wl.counter {
		n := int64(0)
		if found {
			var err error
			if n, err = strconv.ParseInt(string(last), 10, 64); err != nil {
				return nil, fmt.Errorf("counter %s: %q is not a number", key, clip(last))
			}
		}
		return []byte(strconv.FormatInt(n+1, 10)), nil
	}
	v := make([]byte, valueSize)
	n := copy(v, fmt.Sprintf("%s/c%d/s%d/", key, c.id, c.seq))
	for i := n; i < len(v); i++ {
		v[i] = 'a' + byte((i+c.seq)%26)
	}
	return v, nil
}

// runClients drives n closed-loop clients until stop is closed and returns
// them once every client has finished its current section.
// Every completed section increments completed.
func runClients(n int, wl *workload, hc *http.Client, base string, chk *checker, seed int64, stop <-chan struct{}, completed *atomic.Int64) []*client {
	cls := make([]*client, n)
	var wg sync.WaitGroup
	for i := range cls {
		cls[i] = newClient(i, wl, hc, base, chk, seed)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.section() {
					completed.Add(1)
				}
			}
		}(cls[i])
	}
	wg.Wait()
	return cls
}
