package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// The ladder's self times must be non-negative within noise, and they must
// telescope: each operation's self times sum to its REST median.
func TestLadderSelfTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two in-process deployments")
	}
	wl, _ := lookupWorkload("uniform-lan")
	l, err := newLadder(wl)
	if err != nil {
		t.Fatal(err)
	}
	err = l.run(1500*time.Millisecond, 1)
	l.close()
	if err != nil {
		t.Fatal(err)
	}
	out := newMetricSet()
	const link = 20.0 // µs
	ladderMetrics(out, l.p50, link)
	if len(out.names) != len(ladderNames()) {
		t.Fatalf("ladder reported %d metrics, want %d", len(out.names), len(ladderNames()))
	}
	// Differences of medians taken on a shared 2-vCPU host.
	const noise = -300.0 // µs
	for _, name := range out.names {
		if v := out.m[name].Value; strings.HasSuffix(name, ".self_us") && v < noise {
			t.Errorf("%s = %.1fµs, below the noise floor %.0fµs", name, v, noise)
		}
	}
	v := func(name string) float64 { return out.m[name].Value }
	for _, op := range opNames {
		below := map[string]float64{
			"create":  v("lockstore.enqueue.self_us") + v("store.get_one.self_us") + v("store.cas.self_us") + casRounds*v("nettrans.call.p50_us"),
			"acquire": v("lockstore.peek.p50_us") + v("store.get_quorum.self_us") + v("nettrans.call.p50_us"),
			"get":     v("store.get_quorum.self_us") + v("nettrans.call.p50_us"),
			"put":     v("store.put_quorum.self_us") + v("nettrans.call.p50_us"),
			"release": v("lockstore.dequeue.self_us") + v("store.get_one.self_us") + v("store.cas.self_us") + casRounds*v("nettrans.call.p50_us"),
		}[op]
		sum := v("httpapi."+op+".self_us") + v("music."+op+".self_us") + v("core."+op+".self_us") + below
		if rest := l.p50("rest." + op); math.Abs(sum-rest) > 1e-6 {
			t.Errorf("%s: self times sum to %.3fµs, REST median is %.3fµs", op, sum, rest)
		}
	}
	if got, want := v("nettrans.call.self_us"), v("nettrans.call.p50_us")-link; got != want {
		t.Errorf("nettrans.call.self_us = %v, want call − link = %v", got, want)
	}
}
