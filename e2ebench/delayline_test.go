package main

import (
	"io"
	"net"
	"strconv"
	"testing"
	"time"
)

// The idle RTT through a line of one-way delay d must be at least 2d and
// should not overshoot by more than scheduler noise.
func TestDelayLineCalibration(t *testing.T) {
	const oneWay = time.Millisecond
	rtt, err := probeRTT(oneWay, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rtt[0] < 2*oneWay {
		t.Fatalf("fastest RTT %v is below the injected %v", rtt[0], 2*oneWay)
	}
	if p50 := quantile(rtt, 0.5); p50 > 2*oneWay+3*time.Millisecond {
		t.Fatalf("median RTT %v overshoots the injected %v by more than 3ms", p50, 2*oneWay)
	}
	direct, err := probeRTT(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p50 := quantile(direct, 0.5); p50 > time.Millisecond {
		t.Fatalf("plain loopback median RTT %v, want well under 1ms", p50)
	}
}

// Chunks in flight together arrive together: the delay runs from each
// chunk's arrival, so n back-to-back writes take about one RTT, not n.
func TestDelayLineDoesNotSerializeChunks(t *testing.T) {
	const oneWay = 5 * time.Millisecond
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	echo := newEchoServer(lis)
	defer echo.Close()
	line, err := newDelayLine(echo.lis.Addr().String(), oneWay)
	if err != nil {
		t.Fatal(err)
	}
	defer line.Close()
	c, err := net.Dial("tcp", line.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != byte(i) {
			t.Fatalf("byte %d = %d: order not preserved", i, b)
		}
	}
	if el := time.Since(start); el > 4*2*oneWay {
		t.Fatalf("%d chunks took %v; a per-chunk deadline gives about one RTT (%v)", n, el, 2*oneWay)
	}
}

// A connection made before the upstream listens is held, not closed, and
// forwarded once the upstream comes up.
func TestDelayLineWaitsForUpstream(t *testing.T) {
	ports, release, err := reservePorts(1)
	if err != nil {
		t.Fatal(err)
	}
	release()
	upstream := net.JoinHostPort("127.0.0.1", strconv.Itoa(ports[0]))
	line, err := newDelayLine(upstream, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer line.Close()
	c, err := net.Dial("tcp", line.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the line keeps redialing meanwhile
	lis, err := net.Listen("tcp", upstream)
	if err != nil {
		t.Skipf("port %s taken meanwhile: %v", upstream, err)
	}
	defer newEchoServer(lis).Close()
	buf := make([]byte, 2)
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("read %q, %v: the early connection was not forwarded", buf, err)
	}
}
