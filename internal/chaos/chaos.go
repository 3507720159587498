// Package chaos is a zero-dependency fault-injecting TCP proxy in the shape
// of toxiproxy: it forwards byte streams between clients and one upstream
// while injecting the network faults a resilient client must survive —
// added latency, a mid-stream stall, a TCP reset after N bytes, and a
// graceful close after N bytes (which tears an NDJSON line in half from the
// receiver's point of view).
//
// The byte-triggered faults count bytes in the client→upstream direction,
// because that is the direction ingest payloads travel; latency shapes both
// directions. Toxics are swappable at runtime (Set), so a test can march one
// fault class after another through the same proxy, and the upstream address
// is swappable too (SetUpstream), so a server restart behind the proxy looks
// to clients like the same endpoint coming back.
//
// Used in-process by the chaos e2e (internal/serve) and standalone as the
// demon-chaos dev binary.
package chaos

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/demon-mining/demon/internal/obs/log"
)

// Toxics describes the faults a Proxy injects. The zero value is a
// transparent proxy. At most one of the byte-triggered faults (StallAfter,
// ResetAfter, CloseAfter) fires per connection: the one with the smallest
// trigger offset wins.
type Toxics struct {
	// Latency is added once per forwarded chunk in both directions,
	// modelling a slow link.
	Latency time.Duration
	// StallAfter stops forwarding the connection after N client→upstream
	// bytes (0 = disabled): bytes keep being accepted from the client but
	// nothing moves, which is how a half-dead middlebox looks. StallFor
	// bounds the stall; 0 stalls until the connection is torn down.
	StallAfter int64
	StallFor   time.Duration
	// ResetAfter sends the client a TCP RST after N client→upstream bytes
	// (0 = disabled) — the "connection reset by peer" class of ambiguous
	// failure.
	ResetAfter int64
	// CloseAfter closes both sides cleanly after N client→upstream bytes
	// (0 = disabled). Triggered mid-line it delivers a torn NDJSON write to
	// the server.
	CloseAfter int64
}

// enabled reports whether any fault is configured.
func (t Toxics) enabled() bool { return t != (Toxics{}) }

// trigger returns the smallest positive byte-trigger offset and what fires
// there.
func (t Toxics) trigger() (offset int64, kind byteFault) {
	offset, kind = 0, faultNone
	consider := func(o int64, k byteFault) {
		if o > 0 && (offset == 0 || o < offset) {
			offset, kind = o, k
		}
	}
	consider(t.StallAfter, faultStall)
	consider(t.ResetAfter, faultReset)
	consider(t.CloseAfter, faultClose)
	return offset, kind
}

type byteFault int

const (
	faultNone byteFault = iota
	faultStall
	faultReset
	faultClose
)

// Proxy is one listener forwarding to one upstream with faults injected.
type Proxy struct {
	ln       net.Listener
	upstream atomic.Value // func() (net.Conn, error)
	toxics   atomic.Value // Toxics
	log      *log.Logger

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Counters for observability and test assertions.
	accepted atomic.Int64
	resets   atomic.Int64
	closes   atomic.Int64
	stalls   atomic.Int64
}

// New starts a proxy accepting on ln and forwarding each connection to one
// that dial opens. The proxy owns ln from then on: Close closes it.
func New(ln net.Listener, dial func() (net.Conn, error)) *Proxy {
	p := &Proxy{ln: ln, log: log.Default(), conns: make(map[net.Conn]struct{})}
	p.upstream.Store(dial)
	p.toxics.Store(Toxics{})
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Set swaps the active toxics. Connections accepted after the call observe
// the new configuration; established connections keep the toxics they were
// accepted under, so one connection experiences one coherent fault.
func (p *Proxy) Set(t Toxics) { p.toxics.Store(t) }

// Toxics returns the active toxics.
func (p *Proxy) Toxics() Toxics { return p.toxics.Load().(Toxics) }

// SetUpstream redirects new connections to the upstream dial opens — the
// restart-behind-a-stable-endpoint move.
func (p *Proxy) SetUpstream(dial func() (net.Conn, error)) { p.upstream.Store(dial) }

// Accepted returns the number of client connections accepted so far.
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// Injected returns how many byte-triggered faults have fired, by kind.
func (p *Proxy) Injected() (resets, closes, stalls int64) {
	return p.resets.Load(), p.closes.Load(), p.stalls.Load()
}

// Close stops the listener and tears down every live connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = client.Close()
			return
		}
		p.conns[client] = struct{}{}
		p.mu.Unlock()
		p.accepted.Add(1)
		p.wg.Add(1)
		go p.handle(client)
	}
}

func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// handle forwards one client connection through the toxics snapshot taken
// at accept time.
func (p *Proxy) handle(client net.Conn) {
	defer p.wg.Done()
	defer p.forget(client)
	defer client.Close()

	tox := p.Toxics()
	upstream, err := p.upstream.Load().(func() (net.Conn, error))()
	if err != nil {
		p.log.Warn("chaos: upstream dial failed", "err", err)
		return
	}
	defer upstream.Close()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer p.forget(upstream)

	// The byte-triggered fault (if any) fires on the upstream direction at
	// an exact offset; the fire function runs on the up-pump goroutine.
	offset, kind := tox.trigger()
	fire := func() {
		switch kind {
		case faultStall:
			p.stalls.Add(1)
			if tox.StallFor > 0 {
				time.Sleep(tox.StallFor)
				return // resume forwarding after the stall
			}
			// Stall forever: park until either side is torn down. Reads on
			// the client keep succeeding (kernel buffers), but nothing is
			// forwarded; the client's deadline is what ends this.
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		case faultReset:
			p.resets.Add(1)
			reset(client)
			_ = upstream.Close()
		case faultClose:
			p.closes.Add(1)
			_ = client.Close()
			_ = upstream.Close()
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pump(upstream, client, tox, offset, fire)
		// Client stopped sending: propagate the write-side close so the
		// upstream's request read ends instead of hanging.
		closeWrite(upstream)
	}()
	go func() {
		defer wg.Done()
		pump(client, upstream, tox, 0, nil)
		closeWrite(client)
	}()
	wg.Wait()
}

// pump copies src→dst applying latency. When trigger > 0, exactly trigger
// bytes are forwarded and then fire runs; pump returns after firing unless
// the fault was a bounded stall, in which case forwarding resumes
// transparently.
func pump(dst io.Writer, src io.Reader, tox Toxics, trigger int64, fire func()) {
	buf := make([]byte, 16*1024)
	var copied int64
	for {
		limit := int64(len(buf))
		if trigger > 0 && copied < trigger && trigger-copied < limit {
			limit = trigger - copied // split the chunk exactly at the trigger
		}
		n, rerr := src.Read(buf[:limit])
		if n > 0 {
			if tox.Latency > 0 {
				time.Sleep(tox.Latency)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			copied += int64(n)
			if trigger > 0 && copied >= trigger {
				resumed := false
				if fire != nil {
					stallBounded := tox.StallAfter == trigger && tox.StallFor > 0
					fire()
					resumed = stallBounded
				}
				if !resumed {
					return
				}
				trigger = 0 // bounded stall over; forward the rest plainly
			}
		}
		if rerr != nil {
			return
		}
	}
}

// reset makes closing c send a TCP RST instead of a FIN, so the client sees
// "connection reset by peer" — the ambiguous failure mode.
func reset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// closeWrite half-closes the write side when the transport supports it.
func closeWrite(c net.Conn) {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.(closeWriter); ok {
		_ = cw.CloseWrite()
		return
	}
	_ = c.Close()
}
