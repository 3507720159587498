// Command demon-chaos is a fault-injecting TCP proxy for exercising
// demon-serve clients against bad networks. It forwards a local port to an
// upstream while injecting one coherent fault per connection: added latency,
// a mid-stream stall, a TCP reset after N bytes, or a graceful close after N
// bytes (a torn NDJSON write from the server's point of view).
//
// Usage:
//
//	demon-chaos -listen 127.0.0.1:8081 -upstream 127.0.0.1:8080 \
//	    -latency 50ms -reset-after 4096
//
// then point demon-feed (or curl) at :8081 instead of :8080.
package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/demon-mining/demon/internal/chaos"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/obs/log"
)

func main() { cli.Main("demon-chaos", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	listen := fs.String("listen", "127.0.0.1:8081", "address to listen on")
	upstream := fs.String("upstream", "127.0.0.1:8080", "address to forward to")
	var tox chaos.Toxics
	fs.DurationVar(&tox.Latency, "latency", 0, "extra latency per forwarded chunk, each direction")
	fs.Int64Var(&tox.StallAfter, "stall-after", 0, "stop forwarding after N client→upstream bytes (0 = off)")
	fs.DurationVar(&tox.StallFor, "stall-for", 0, "bound the stall; 0 stalls until the connection dies")
	fs.Int64Var(&tox.ResetAfter, "reset-after", 0, "send the client a TCP RST after N client→upstream bytes (0 = off)")
	fs.Int64Var(&tox.CloseAfter, "close-after", 0, "close both sides after N client→upstream bytes (0 = off)")
	return func(ctx context.Context) error {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("start failed: %w", err)
		}
		run(ctx, chaos.New(ln, func() (net.Conn, error) { return net.DialTimeout("tcp", *upstream, 10*time.Second) }), *upstream, tox)
		return nil
	}
}

// run proxies with the given toxics until ctx is cancelled, then closes p
// and logs what it accepted and injected.
func run(ctx context.Context, p *chaos.Proxy, upstream string, tox chaos.Toxics) {
	logger := log.Default()
	p.Set(tox)
	logger.Info("demon-chaos: proxying", "listen", p.Addr(), "upstream", upstream,
		"toxics", fmt.Sprintf("%+v", p.Toxics()))

	<-ctx.Done()
	start := time.Now()
	_ = p.Close()
	resets, closes, stalls := p.Injected()
	logger.Info("demon-chaos: shut down",
		"accepted", p.Accepted(), "resets", resets, "closes", closes, "stalls", stalls,
		"drain", time.Since(start).String())
}
