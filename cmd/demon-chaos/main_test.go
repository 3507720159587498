package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/chaos"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/obs/log"
)

// TestRunProxiesUntilCancelled: a request through the proxy reaches the
// upstream; cancelling the context — the SIGTERM path — closes the proxy and
// reports the accepted-connection count.
func TestRunProxiesUntilCancelled(t *testing.T) {
	var logged bytes.Buffer
	prev := log.SetDefault(log.New(&logged, log.LevelInfo, log.FormatText))
	defer log.SetDefault(prev)

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "through")
	}))
	defer upstream.Close()
	upstreamAddr := strings.TrimPrefix(upstream.URL, "http://")

	p, err := chaos.New("127.0.0.1:0", upstreamAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { run(ctx, p, upstreamAddr, chaos.Toxics{}); close(done) }()

	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get("http://" + p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "through" {
		t.Errorf("proxied body = %q", body)
	}

	cancel()
	<-done
	if _, err := hc.Get("http://" + p.Addr()); err == nil {
		t.Error("the proxy outlived its context")
	}
	if out := logged.String(); !strings.Contains(out, "accepted=1") || !strings.Contains(out, "upstream="+upstreamAddr) {
		t.Errorf("log does not report the run:\n%s", out)
	}
}

// TestUsage: an unusable listen address fails the run (exit 1) with the
// command's name on stderr, and the shared log flags are accepted.
func TestUsage(t *testing.T) {
	var stderr bytes.Buffer
	args := []string{"-listen", "not an address", "-log-level", "error", "-log-format", "json"}
	if code := cli.Run(context.Background(), "demon-chaos", args, &stderr, setup); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stderr.String(), "demon-chaos: start failed: ") {
		t.Errorf("stderr = %q", stderr.String())
	}
}
