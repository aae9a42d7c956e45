package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/lockstore"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/music"
)

// The ladder times the same operations at successively deeper layers, from
// outside each layer's public functions, and takes each layer's self time as
// the difference between adjacent depths. Self times therefore telescope:
// they sum to the outermost depth's time.
//
// Two in-process deployments provide the depths, each three nettrans
// transports on loopback (behind delay lines when the workload injects
// delay) with obs on, as musicd runs them:
//   - upper, wired as musicd's runMulti (music.NewOverTransport): the REST
//     API (httpapi over a loopback listener) and the music client;
//   - lower, store.New + core.NewReplica + lockstore.New, because music
//     does not expose its store: the core replica, the lock store, the
//     store client and a bare nettrans call.

// Ladder operation names, as "<layer>.<op>".
var (
	lockstoreOps = []string{"enqueue", "peek", "setgrant", "dequeue"}
	storeOps     = []string{"get_quorum", "get_one", "put_quorum", "cas"}
)

// casRounds is the number of quorum round trips in one store CAS (prepare,
// serial read, propose, commit).
const casRounds = 4

const ladderTable = "e2ebench"

// echoSvc is the ladder's own nettrans service: it returns its request.
const echoSvc = "e2ebench.echo"

func ladderNames() []string {
	var out []string
	for _, layer := range []string{"httpapi", "music", "core"} {
		for _, op := range opNames {
			out = append(out, layer+"."+op+".self_us")
		}
	}
	for _, op := range lockstoreOps {
		out = append(out, "lockstore."+op+".p50_us")
	}
	out = append(out, "lockstore.enqueue.self_us", "lockstore.dequeue.self_us")
	for _, op := range storeOps {
		out = append(out, "store."+op+".p50_us")
	}
	for _, op := range storeOps {
		out = append(out, "store."+op+".self_us")
	}
	return append(out, "nettrans.call.p50_us", "nettrans.call.self_us")
}

// ladder is the pair of in-process deployments and the samples taken.
type ladder struct {
	wl      *workload
	closers []func()
	rest    *restClient
	mcl     *music.Client
	rep     *core.Replica
	ls      *lockstore.Service
	st      *store.Client
	tr0     *nettrans.Transport
	samples map[string][]time.Duration
}

// transports builds three nettrans endpoints with obs on, each behind a
// delay line of oneWay when oneWay > 0.
func (l *ladder) transports(rt sim.Runtime, oneWay time.Duration) ([]*nettrans.Transport, error) {
	lis := make([]net.Listener, len(siteNames))
	peers := make([]nettrans.Peer, len(siteNames))
	for i, s := range siteNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { _ = ln.Close() })
		lis[i] = ln
		addr := ln.Addr().String()
		if oneWay > 0 {
			line, err := newDelayLine(addr, oneWay)
			if err != nil {
				return nil, err
			}
			l.closers = append(l.closers, line.Close)
			addr = line.Addr()
		}
		peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: s, Addr: addr}
	}
	trs := make([]*nettrans.Transport, len(siteNames))
	for i := range trs {
		tr, err := nettrans.New(rt, nettrans.Config{Self: peers[i].ID, Peers: peers, Listener: lis[i], Obs: obs.New(rt, obs.Options{})})
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, tr.Close)
		trs[i] = tr
	}
	return trs, nil
}

func newLadder(wl *workload) (l *ladder, err error) {
	l = &ladder{wl: wl, samples: make(map[string][]time.Duration)}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	rt := sim.NewReal(1)

	upper, err := l.transports(rt, wl.oneWay)
	if err != nil {
		return nil, err
	}
	var home *music.Cluster
	for i, tr := range upper {
		c, err := music.NewOverTransport(tr, music.TransportConfig{
			T:          time.Minute,
			LocalNodes: []transport.NodeID{transport.NodeID(i)},
			Obs:        tr.Obs(),
		})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			home = c
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: httpapi.New(home.Client(siteNames[0]))}
	go func() { _ = srv.Serve(ln) }()
	l.closers = append(l.closers, func() { _ = srv.Close() })
	l.rest = &restClient{hc: newHTTPClient(), base: "http://" + ln.Addr().String(), rec: &recorder{}}
	l.mcl = home.Client(siteNames[0])

	lower, err := l.transports(rt, wl.oneWay)
	if err != nil {
		return nil, err
	}
	var st0 *store.Cluster
	for i, tr := range lower {
		st := store.New(tr, store.Config{RF: 3, LocalNodes: []transport.NodeID{transport.NodeID(i)}})
		if i == 0 {
			st0 = st
		}
	}
	lower[1].Handle(1, echoSvc, func(_ transport.NodeID, req any) (any, error) { return req, nil })
	l.tr0 = lower[0]
	l.st = st0.Client(0)
	l.rep = core.NewReplica(l.st, core.Config{T: time.Minute})
	l.ls = lockstore.New(l.st)
	return l, nil
}

func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	l.closers = nil
}

// timed runs fn and records its duration under name.
func (l *ladder) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.samples[name] = append(l.samples[name], time.Since(start))
	return nil
}

// value is the ladder's put: the workload's value shape, unchecked.
func (l *ladder) value(i int) []byte {
	if l.wl.counter {
		return []byte(strconv.Itoa(i))
	}
	v := make([]byte, valueSize)
	for j := range v {
		v[j] = 'a' + byte((i+j)%26)
	}
	return v
}

// restSection is one section through the REST API; its calls are logged
// by the rest client's recorder.
func (l *ladder) restSection(key string, i int) error {
	ref, err := l.rest.create(key)
	if err != nil {
		return err
	}
	if _, err := l.rest.await(key, ref); err != nil {
		return err
	}
	for g := 0; g < l.wl.gets; g++ {
		if _, _, err := l.rest.get(key, ref); err != nil {
			return err
		}
	}
	if err := l.rest.put(key, ref, l.value(i)); err != nil {
		return err
	}
	return l.rest.release(key, ref)
}

func (l *ladder) musicSection(key string, i int) error {
	var ref music.LockRef
	if err := l.timed("music.create", func() (err error) { ref, err = l.mcl.CreateLockRef(key); return }); err != nil {
		return err
	}
	err := pollSchedule(func() (ok bool, err error) {
		err = l.timed("music.acquire", func() (e error) { ok, e = l.mcl.AcquireLock(key, ref); return })
		return
	})
	if err != nil {
		return err
	}
	for g := 0; g < l.wl.gets; g++ {
		if err := l.timed("music.get", func() error { _, e := l.mcl.CriticalGet(key, ref); return e }); err != nil {
			return err
		}
	}
	if err := l.timed("music.put", func() error { return l.mcl.CriticalPut(key, ref, l.value(i)) }); err != nil {
		return err
	}
	return l.timed("music.release", func() error { return l.mcl.ReleaseLock(key, ref) })
}

func (l *ladder) coreSection(key string, i int) error {
	var ref int64
	if err := l.timed("core.create", func() (err error) { ref, err = l.rep.CreateLockRef(key); return }); err != nil {
		return err
	}
	err := pollSchedule(func() (ok bool, err error) {
		err = l.timed("core.acquire", func() (e error) { ok, e = l.rep.AcquireLock(key, ref); return })
		return
	})
	if err != nil {
		return err
	}
	for g := 0; g < l.wl.gets; g++ {
		if err := l.timed("core.get", func() error { _, e := l.rep.CriticalGet(key, ref); return e }); err != nil {
			return err
		}
	}
	if err := l.timed("core.put", func() error { return l.rep.CriticalPut(key, ref, l.value(i)) }); err != nil {
		return err
	}
	return l.timed("core.release", func() error { return l.rep.ReleaseLock(key, ref) })
}

func (l *ladder) lockstoreRound(key string) error {
	key = "ls/" + key
	var ref int64
	if err := l.timed("lockstore.enqueue", func() (err error) { ref, err = l.ls.GenerateAndEnqueue(key); return }); err != nil {
		return err
	}
	if err := l.timed("lockstore.peek", func() error { _, _, e := l.ls.Peek(key); return e }); err != nil {
		return err
	}
	now := time.Now().UnixMicro()
	if err := l.timed("lockstore.setgrant", func() error { return l.ls.SetGrant(key, ref, now, 0) }); err != nil {
		return err
	}
	return l.timed("lockstore.dequeue", func() error { return l.ls.Dequeue(key, ref) })
}

func (l *ladder) storeRound(key string, i int) error {
	key = "st/" + key
	row := store.Row{"v": store.Cell{Value: l.value(i)}}
	if err := l.timed("store.put_quorum", func() error { return l.st.Put(ladderTable, key, row, store.Quorum) }); err != nil {
		return err
	}
	if err := l.timed("store.get_quorum", func() error { _, e := l.st.Get(ladderTable, key, store.Quorum); return e }); err != nil {
		return err
	}
	if err := l.timed("store.get_one", func() error { _, e := l.st.Get(ladderTable, key, store.One); return e }); err != nil {
		return err
	}
	return l.timed("store.cas", func() error { _, e := l.st.CAS(ladderTable, key+"/cas", nil, row); return e })
}

func (l *ladder) callRound() error {
	payload := make([]byte, 64)
	return l.timed("nettrans.call", func() error { _, e := l.tr0.Call(0, 1, echoSvc, payload); return e })
}

// run interleaves the depths round-robin until d has passed, so drift in
// the host's load spreads evenly over them.
func (l *ladder) run(d time.Duration, seed int64) error {
	type depth struct {
		next func() string
		step func(key string, i int) error
	}
	keys := func(salt int64) func() string {
		return l.wl.keys(rand.New(rand.NewSource(seed*7919 + salt)))
	}
	depths := []depth{
		{keys(1), l.restSection},
		{keys(2), l.musicSection},
		{keys(3), l.coreSection},
		{keys(4), func(k string, _ int) error { return l.lockstoreRound(k) }},
		{keys(5), l.storeRound},
		{nil, func(string, int) error { return l.callRound() }},
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		for _, dp := range depths {
			key := ""
			if dp.next != nil {
				key = dp.next()
			}
			if err := dp.step(key, i); err != nil {
				return err
			}
		}
	}
	for _, c := range l.rest.rec.calls {
		name := "rest." + opNames[c.op]
		l.samples[name] = append(l.samples[name], c.d)
	}
	return nil
}

// p50 is the median sample of one ladder operation, in µs.
func (l *ladder) p50(name string) float64 {
	return us(quantile(sortDurations(l.samples[name]), 0.5))
}

// ladderMetrics derives every ladder metric from the samples and the idle
// link RTT median.
func ladderMetrics(out *metricSet, p50 func(string) float64, linkRTT float64) {
	below := map[string]float64{
		"create":  p50("lockstore.enqueue"),
		"acquire": p50("lockstore.peek") + p50("store.get_quorum"),
		"get":     p50("store.get_quorum"),
		"put":     p50("store.put_quorum"),
		"release": p50("lockstore.dequeue"),
	}
	for _, op := range opNames {
		out.add("httpapi."+op+".self_us", "us", p50("rest."+op)-p50("music."+op))
	}
	for _, op := range opNames {
		out.add("music."+op+".self_us", "us", p50("music."+op)-p50("core."+op))
	}
	for _, op := range opNames {
		out.add("core."+op+".self_us", "us", p50("core."+op)-below[op])
	}
	for _, op := range lockstoreOps {
		out.add("lockstore."+op+".p50_us", "us", p50("lockstore."+op))
	}
	// Enqueue and dequeue each read the local row at ONE, then CAS it.
	storeBelow := p50("store.get_one") + p50("store.cas")
	out.add("lockstore.enqueue.self_us", "us", p50("lockstore.enqueue")-storeBelow)
	out.add("lockstore.dequeue.self_us", "us", p50("lockstore.dequeue")-storeBelow)
	call := p50("nettrans.call")
	for _, op := range storeOps {
		out.add("store."+op+".p50_us", "us", p50("store."+op))
	}
	rounds := map[string]float64{"get_quorum": 1, "get_one": 0, "put_quorum": 1, "cas": casRounds}
	for _, op := range storeOps {
		out.add("store."+op+".self_us", "us", p50("store."+op)-rounds[op]*call)
	}
	out.add("nettrans.call.p50_us", "us", call)
	out.add("nettrans.call.self_us", "us", call-linkRTT)
}
