package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fakeMusic serves the Table I REST subset the load generator uses from
// one in-memory map. With staleEvery > 0, every staleEvery-th critical get
// of a key with an earlier value returns that earlier value: a planted
// stale read.
type fakeMusic struct {
	mu         sync.Mutex
	ref        int64
	cur, prev  map[string][]byte
	gets       int
	staleEvery int
}

func newFakeMusic(staleEvery int) *httptest.Server {
	f := &fakeMusic{cur: map[string][]byte{}, prev: map[string][]byte{}, staleEvery: staleEvery}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/locks/{key}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.ref++
		ref := f.ref
		f.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(map[string]int64{"lockRef": ref})
	})
	mux.HandleFunc("GET /v1/locks/{key}/{ref}", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]bool{"holder": true})
	})
	mux.HandleFunc("DELETE /v1/locks/{key}/{ref}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("PUT /v1/keys/{key}", func(w http.ResponseWriter, r *http.Request) {
		v, _ := io.ReadAll(r.Body)
		key := r.PathValue("key")
		f.mu.Lock()
		if old, ok := f.cur[key]; ok {
			f.prev[key] = old
		}
		f.cur[key] = v
		f.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/keys/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		f.mu.Lock()
		f.gets++
		v, ok := f.cur[key]
		if old, had := f.prev[key]; had && f.staleEvery > 0 && f.gets%f.staleEvery == 0 {
			v = old
		}
		f.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		_, _ = w.Write(v)
	})
	return httptest.NewServer(mux)
}

// runSections drives n sections of wl against base and returns the checker.
func runSections(t *testing.T, wl *workload, base string, n int) *checker {
	t.Helper()
	chk := newChecker()
	c := newClient(0, wl, newHTTPClient(), base, chk, 1)
	for i := 0; i < n; i++ {
		if !c.section() {
			t.Fatalf("section %d failed against the fake server", i)
		}
	}
	return chk
}

func TestCheckerPassesConsistentServer(t *testing.T) {
	for _, name := range []string{"uniform-lan", "readmostly-wan", "hotkey-lan"} {
		srv := newFakeMusic(0)
		wl, _ := lookupWorkload(name)
		chk := runSections(t, wl, srv.URL, 40)
		if wl.counter {
			if err := checkCounter(newHTTPClient(), srv.URL, wl, chk); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		if f := chk.failures(); len(f) > 0 {
			t.Errorf("%s: honest server flagged: %v", name, f)
		}
	}
}

func TestCheckerCatchesPlantedStaleRead(t *testing.T) {
	for _, name := range []string{"readmostly-wan", "hotkey-lan"} {
		srv := newFakeMusic(5)
		wl, _ := lookupWorkload(name)
		chk := runSections(t, wl, srv.URL, 40)
		srv.Close()
		f := chk.failures()
		if len(f) == 0 {
			t.Fatalf("%s: planted stale reads went unnoticed", name)
		}
		if !strings.Contains(f[0], "stale") {
			t.Errorf("%s: violation %q does not name the stale read", name, f[0])
		}
	}
}

func TestCheckerUncertainPut(t *testing.T) {
	chk := newChecker()
	chk.wrote("k", []byte("a"), true)
	chk.wrote("k", []byte("b"), false) // outcome unknown: a or b may be read
	if !chk.read("k", []byte("b"), true) {
		t.Fatal("a put with unknown outcome must be readable")
	}
	if chk.read("k", []byte("a"), true) {
		t.Fatal("once b was read, reading a again is stale")
	}
	if !chk.read("never", nil, false) {
		t.Fatal("a key never written must read as 404")
	}
	if chk.read("k", nil, false) {
		t.Fatal("a written key must not read as 404")
	}
}

func TestFinalCounterMismatch(t *testing.T) {
	srv := newFakeMusic(0)
	defer srv.Close()
	wl, _ := lookupWorkload("hotkey-lan")
	chk := runSections(t, wl, srv.URL, 10)
	chk.increments.Add(1) // claim one increment more than the server saw
	if err := checkCounter(newHTTPClient(), srv.URL, wl, chk); err != nil {
		t.Fatal(err)
	}
	f := chk.failures()
	if len(f) != 1 || !strings.Contains(f[0], "final counter 10,") {
		t.Fatalf("failures = %q, want one final-counter mismatch", f)
	}
}
