package main

import (
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

// delayLine is a TCP proxy that forwards every connection it accepts to one
// upstream address and delays each chunk, in both directions, by a fixed
// one-way time measured from that chunk's arrival. Deadlines are per chunk,
// not cumulative: a burst of chunks leaves together one oneWay later, so
// concurrent replies on one connection are not serialized behind each
// other's sleeps.
//
// It accepts nothing until the upstream answers a dial. A connection accepted
// and then closed for want of an upstream would put the dialing musicd into
// redial backoff; left in the listen backlog instead, it is forwarded as soon
// as the upstream is up.
type delayLine struct {
	lis      net.Listener
	upstream string
	oneWay   time.Duration

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	stop   chan struct{}
}

// chunk is one read's bytes and the instant they are due at the far side.
type chunk struct {
	data []byte
	due  time.Time
}

// newDelayLine listens on a fresh loopback port and forwards to upstream.
func newDelayLine(upstream string, oneWay time.Duration) (*delayLine, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &delayLine{
		lis:      lis,
		upstream: upstream,
		oneWay:   oneWay,
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	d.wg.Add(1)
	go d.serve()
	return d, nil
}

// Addr is the address clients dial in place of the upstream.
func (d *delayLine) Addr() string { return d.lis.Addr().String() }

// Close stops accepting, drops every forwarded connection and returns once
// all of the line's goroutines have exited.
func (d *delayLine) Close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.stop)
		_ = d.lis.Close()
		for c := range d.conns {
			_ = c.Close()
		}
	}
	d.mu.Unlock()
	d.wg.Wait()
}

func (d *delayLine) serve() {
	defer d.wg.Done()
	// The first upstream connection doubles as the readiness probe: it is
	// handed to the first accepted client, so no probe connection is wasted.
	spare, err := d.dialUpstream()
	if err != nil {
		return
	}
	for {
		c, err := d.lis.Accept()
		if err != nil {
			if spare != nil {
				_ = spare.Close()
			}
			return
		}
		up := spare
		spare = nil
		if up == nil {
			if up, err = d.dialUpstream(); err != nil {
				_ = c.Close()
				return
			}
		}
		if !d.track(c, up) {
			return
		}
		d.wg.Add(2)
		go d.pipe(c, up)
		go d.pipe(up, c)
	}
}

// dialUpstream retries until the upstream accepts or the line is closed.
func (d *delayLine) dialUpstream() (net.Conn, error) {
	for {
		c, err := net.DialTimeout("tcp", d.upstream, time.Second)
		if err == nil {
			return c, nil
		}
		select {
		case <-d.stop:
			return nil, errors.New("delay line closed")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (d *delayLine) track(conns ...net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		for _, c := range conns {
			_ = c.Close()
		}
		return false
	}
	for _, c := range conns {
		d.conns[c] = struct{}{}
	}
	return true
}

// pipe copies src to dst, holding each chunk until oneWay after it was read.
func (d *delayLine) pipe(src, dst net.Conn) {
	defer d.wg.Done()
	// The buffer bounds the bytes in flight on one direction (64 chunks of at
	// most 32 KiB); a full buffer pushes back on the reader like a full
	// socket would.
	chunks := make(chan chunk, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		failed := false
		for c := range chunks {
			if failed {
				continue // drain so the reader never blocks on a dead writer
			}
			if wait := time.Until(c.due); wait > 0 {
				time.Sleep(wait)
			}
			if _, err := dst.Write(c.data); err != nil {
				failed = true
				_ = src.Close()
			}
		}
		if tc, ok := dst.(*net.TCPConn); ok && !failed {
			_ = tc.CloseWrite()
		}
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunks <- chunk{data: append([]byte(nil), buf[:n]...), due: time.Now().Add(d.oneWay)}
		}
		if err != nil {
			break
		}
	}
	close(chunks)
	<-done
}

// echoServer answers every byte it reads with the same byte; it is the far
// end of the idle RTT probe.
type echoServer struct {
	lis net.Listener
	wg  sync.WaitGroup
	mu  sync.Mutex
	cs  []net.Conn
}

// newEchoServer serves echo on lis until Close.
func newEchoServer(lis net.Listener) *echoServer {
	e := &echoServer{lis: lis}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.cs = append(e.cs, c)
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				_, _ = io.Copy(c, c)
				_ = c.Close()
			}()
		}
	}()
	return e
}

func (e *echoServer) Close() {
	_ = e.lis.Close()
	e.mu.Lock()
	for _, c := range e.cs {
		_ = c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// probeRTT times n ping-pongs of one byte against an idle echo server,
// through a delay line of oneWay, or over plain loopback when oneWay is 0.
// The samples come back sorted.
func probeRTT(oneWay time.Duration, n int) ([]time.Duration, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	echo := newEchoServer(lis)
	defer echo.Close()
	addr := echo.lis.Addr().String()
	if oneWay > 0 {
		line, err := newDelayLine(addr, oneWay)
		if err != nil {
			return nil, err
		}
		defer line.Close()
		addr = line.Addr()
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make([]time.Duration, 0, n)
	b := []byte{1}
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := c.Write(b); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(c, b); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
