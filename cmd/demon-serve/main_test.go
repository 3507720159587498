package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
	"github.com/demon-mining/demon/internal/serve"
)

func quiet(t *testing.T) {
	t.Helper()
	prev := log.SetDefault(nil)
	t.Cleanup(func() { log.SetDefault(prev) })
	prevReg := obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(prevReg) })
}

// start runs the server over root on an ephemeral port and returns its base
// URL and a stop function that cancels the context — the SIGTERM path — and
// returns run's result.
func start(t *testing.T, root string) (base string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serve.Config{Root: root}, serve.DefaultHTTPTimeouts(), ln, time.Minute)
	}()
	return "http://" + ln.Addr().String(), func() error {
		cancel()
		return <-done
	}
}

func request(t *testing.T, method, url, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %s: %s", method, url, resp.Status, out)
	}
	return string(out)
}

func namespaceT(t *testing.T, base, ns string) int {
	t.Helper()
	var st struct {
		T int `json:"t"`
	}
	if err := json.Unmarshal([]byte(request(t, "GET", base+"/v1/namespaces/"+ns, "")), &st); err != nil {
		t.Fatal(err)
	}
	return st.T
}

// TestRunServesDrainsAndResumes: the server answers while its context lives;
// cancelling it drains, checkpoints and returns nil; a second run over the
// same root resumes the namespace at the block the first one drained at.
func TestRunServesDrainsAndResumes(t *testing.T) {
	quiet(t)
	root := t.TempDir()

	base, stop := start(t, root)
	if got := request(t, "GET", base+"/healthz", ""); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	request(t, "POST", base+"/v1/namespaces", `{"name":"retail","kind":"itemset","min_support":0.2}`)
	request(t, "POST", base+"/v1/namespaces/retail/blocks",
		`{"txs":[[1,2,3],[1,2]]}`+"\n"+`{"txs":[[1,2],[4]]}`+"\n"+`{"txs":[[2,3]]}`+"\n")
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("the listener outlived the drain")
	}

	base, stop = start(t, root)
	if got := namespaceT(t, base, "retail"); got != 3 {
		t.Errorf("resumed at t = %d, want 3", got)
	}
	if err := stop(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestRunFailsOnUnusableRoot: a root that cannot be opened is an error, and
// the listener is released.
func TestRunFailsOnUnusableRoot(t *testing.T) {
	quiet(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), serve.Config{}, serve.DefaultHTTPTimeouts(), ln, time.Second); err == nil {
		t.Fatal("run accepted an empty root")
	}
	if _, err := ln.Accept(); err == nil {
		t.Error("listener left open")
	}
}

// TestTraceSampleFlag: demon-serve is the one command that starts traces,
// so it is the one that takes -trace-sample; the flag sets the sampler of
// the tracer /tracez serves from.
func TestTraceSampleFlag(t *testing.T) {
	quiet(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // run starts, sees the cancelled context, drains, exits 0
	var stderr bytes.Buffer
	args := []string{"-root", t.TempDir(), "-addr", "127.0.0.1:0", "-trace-sample", "0.5", "-log-level", "error"}
	if code := cli.Run(cancelled, "demon-serve", args, &stderr, setup); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got := obs.Default().Tracer().SampleRate(); got != 0.5 {
		t.Errorf("tracer samples %v, want 0.5", got)
	}
	if !obs.Default().Enabled() {
		t.Error("demon-serve left the registry off")
	}
	if code := cli.Run(cancelled, "demon-serve", []string{"-store-backend", "bogus", "-root", t.TempDir(), "-addr", "127.0.0.1:0"}, &stderr, setup); code != 1 {
		t.Errorf("unknown -store-backend exits %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), fmt.Sprintf("demon-serve: serve: unknown default store backend %q", "bogus")) {
		t.Errorf("stderr = %q", stderr.String())
	}
}
