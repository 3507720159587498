package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoUpstream accepts connections and echoes everything back, recording the
// bytes it received per connection.
type echoUpstream struct {
	ln net.Listener
	mu sync.Mutex
	rx []*bytes.Buffer
	wg sync.WaitGroup
}

func newEchoUpstream(t *testing.T) *echoUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	u := &echoUpstream{ln: ln}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := &bytes.Buffer{}
			u.mu.Lock()
			u.rx = append(u.rx, buf)
			u.mu.Unlock()
			u.wg.Add(1)
			go func() {
				defer u.wg.Done()
				defer c.Close()
				chunk := make([]byte, 4096)
				for {
					n, err := c.Read(chunk)
					if n > 0 {
						u.mu.Lock()
						buf.Write(chunk[:n])
						u.mu.Unlock()
						if _, werr := c.Write(chunk[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); u.wg.Wait() })
	return u
}

func (u *echoUpstream) received(i int) []byte {
	u.mu.Lock()
	defer u.mu.Unlock()
	if i >= len(u.rx) {
		return nil
	}
	return append([]byte(nil), u.rx[i].Bytes()...)
}

// tcpUpstream dials addr over TCP, the way demon-chaos does.
func tcpUpstream(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
}

func mustProxy(t *testing.T, upstream string) *Proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	p := New(ln, tcpUpstream(upstream))
	t.Cleanup(func() { p.Close() })
	return p
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTransparentForwarding(t *testing.T) {
	u := newEchoUpstream(t)
	p := mustProxy(t, u.ln.Addr().String())

	c := dial(t, p.Addr())
	msg := "hello through the proxy\n"
	if _, err := io.WriteString(c, msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if string(got) != msg {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
	if p.Accepted() != 1 {
		t.Fatalf("accepted = %d, want 1", p.Accepted())
	}
}

func TestResetAfterBytes(t *testing.T) {
	u := newEchoUpstream(t)
	p := mustProxy(t, u.ln.Addr().String())
	p.Set(Toxics{ResetAfter: 10})

	c := dial(t, p.Addr())
	payload := strings.Repeat("x", 64)
	// The write may succeed locally (kernel buffer); the failure surfaces on
	// read or on a subsequent write.
	io.WriteString(c, payload)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	var err error
	for err == nil {
		_, err = c.Read(buf)
	}
	if errors.Is(err, io.EOF) {
		// Accept EOF too: RST delivery races with the close on some stacks,
		// but the connection must die either way.
		t.Logf("got EOF instead of RST (acceptable race)")
	}
	if got := u.received(0); len(got) > 10 {
		t.Fatalf("upstream saw %d bytes, want ≤ trigger 10", len(got))
	}
	resets, _, _ := p.Injected()
	if resets != 1 {
		t.Fatalf("resets = %d, want 1", resets)
	}
}

func TestCloseAfterBytesTearsStream(t *testing.T) {
	u := newEchoUpstream(t)
	p := mustProxy(t, u.ln.Addr().String())
	p.Set(Toxics{CloseAfter: 7})

	c := dial(t, p.Addr())
	io.WriteString(c, "0123456789abcdef")
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	io.Copy(io.Discard, c) // drain until the proxy closes us

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := u.received(0); got != nil && len(got) == 7 {
			if string(got) != "0123456" {
				t.Fatalf("upstream saw %q, want the first 7 bytes", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("upstream saw %q, want exactly the first 7 bytes", u.received(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, closes, _ := p.Injected()
	if closes != 1 {
		t.Fatalf("closes = %d, want 1", closes)
	}
}

func TestStallBoundedResumes(t *testing.T) {
	u := newEchoUpstream(t)
	p := mustProxy(t, u.ln.Addr().String())
	p.Set(Toxics{StallAfter: 5, StallFor: 150 * time.Millisecond})

	c := dial(t, p.Addr())
	msg := "0123456789"
	start := time.Now()
	io.WriteString(c, msg)
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read after stall: %v", err)
	}
	if string(got) != msg {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("round-trip took %v, want ≥ the 150ms stall", elapsed)
	}
	_, _, stalls := p.Injected()
	if stalls != 1 {
		t.Fatalf("stalls = %d, want 1", stalls)
	}
}

func TestLatencySlowsRoundTrip(t *testing.T) {
	u := newEchoUpstream(t)
	p := mustProxy(t, u.ln.Addr().String())
	p.Set(Toxics{Latency: 60 * time.Millisecond})

	c := dial(t, p.Addr())
	start := time.Now()
	io.WriteString(c, "ping")
	got := make([]byte, 4)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	// One latency hit each direction.
	if elapsed := time.Since(start); elapsed < 120*time.Millisecond {
		t.Fatalf("round-trip took %v, want ≥ 120ms", elapsed)
	}
}

func TestSetSwapsToxicsForNewConnections(t *testing.T) {
	u := newEchoUpstream(t)
	p := mustProxy(t, u.ln.Addr().String())
	p.Set(Toxics{ResetAfter: 1})

	c1 := dial(t, p.Addr())
	io.WriteString(c1, "doomed")
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	io.Copy(io.Discard, c1)

	p.Set(Toxics{}) // back to transparent
	c2 := dial(t, p.Addr())
	io.WriteString(c2, "fine\n")
	got := make([]byte, 5)
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c2, got); err != nil {
		t.Fatalf("healthy connection after Set: %v", err)
	}
}

func TestSetUpstreamRedirects(t *testing.T) {
	u1 := newEchoUpstream(t)
	u2 := newEchoUpstream(t)
	p := mustProxy(t, u1.ln.Addr().String())

	c1 := dial(t, p.Addr())
	io.WriteString(c1, "one")
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	io.ReadFull(c1, make([]byte, 3))

	p.SetUpstream(tcpUpstream(u2.ln.Addr().String()))
	c2 := dial(t, p.Addr())
	io.WriteString(c2, "two")
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	io.ReadFull(c2, make([]byte, 3))

	if got := u1.received(0); string(got) != "one" {
		t.Fatalf("first upstream saw %q, want %q", got, "one")
	}
	if got := u2.received(0); string(got) != "two" {
		t.Fatalf("second upstream saw %q, want %q", got, "two")
	}
}

func TestCloseTearsDownLiveConnections(t *testing.T) {
	u := newEchoUpstream(t)
	p := mustProxy(t, u.ln.Addr().String())
	c := dial(t, p.Addr())
	io.WriteString(c, "held open")
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			return // connection died with the proxy, as it must
		}
	}
}

func TestTriggerPicksSmallestOffset(t *testing.T) {
	tox := Toxics{StallAfter: 100, ResetAfter: 50, CloseAfter: 200}
	off, kind := tox.trigger()
	if off != 50 || kind != faultReset {
		t.Fatalf("trigger = (%d, %d), want (50, reset)", off, kind)
	}
	if (Toxics{}).enabled() {
		t.Fatalf("zero toxics reported enabled")
	}
	if !tox.enabled() {
		t.Fatalf("non-zero toxics reported disabled")
	}
}
