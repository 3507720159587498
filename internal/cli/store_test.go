package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	demon "github.com/demon-mining/demon"
)

func TestStoreFlagsParse(t *testing.T) {
	fs := &FlagSet{FlagSet: flag.NewFlagSet("test", flag.ContinueOnError)}
	fs.SetOutput(io.Discard)
	f := fs.StoreFlags()
	if err := fs.Parse([]string{"-store", "d", "-store-backend", "kvfile", "-resume", "-checkpoint-every", "3", "-scrub"}); err != nil {
		t.Fatal(err)
	}
	want := StoreFlags{Dir: "d", Backend: "kvfile", Resume: true, CheckpointEvery: 3, Scrub: true}
	if *f != want {
		t.Errorf("parsed %+v, want %+v", *f, want)
	}
	if !f.ScrubOnly() || (StoreFlags{Scrub: true}).ScrubOnly() {
		t.Error("ScrubOnly must need both -scrub and -store")
	}
}

// TestOpenWithoutStore: no -store means no store, and every flag that needs
// one is rejected by name.
func TestOpenWithoutStore(t *testing.T) {
	if s, err := (StoreFlags{}).Open(); s != nil || err != nil {
		t.Errorf("Open without -store = %v, %v; want nil, nil", s, err)
	}
	for _, f := range []StoreFlags{{Resume: true}, {CheckpointEvery: 1}, {Scrub: true}, {Backend: "kvfile"}} {
		if _, err := f.Open(); err == nil {
			t.Errorf("%+v opened without -store", f)
		}
	}
	if _, err := (StoreFlags{Dir: t.TempDir(), Backend: "bogus"}).Open(); err == nil {
		t.Error("unknown -store-backend opened")
	}
}

// TestFeed pins the ingestion sequence both commands share: skip what the
// checkpoint covers, stop between blocks on a cancelled context, checkpoint
// at the end when there is a store and a model that can.
func TestFeed(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	files := []string{"a", "b", "c"}
	for _, tc := range []struct {
		name       string
		flags      StoreFlags
		ctx        context.Context
		resumedAt  int
		checkpoint bool // the model has one
		fail       string

		fed         []string
		finished    bool
		checkpoints int
	}{
		{name: "in memory", ctx: context.Background(), checkpoint: true, fed: files, finished: true},
		{name: "durable", flags: StoreFlags{Dir: "d"}, ctx: context.Background(), checkpoint: true, fed: files, finished: true, checkpoints: 1},
		{name: "durable flags, model without checkpoint", flags: StoreFlags{Dir: "d"}, ctx: context.Background(), fed: files, finished: true},
		{name: "resumed", flags: StoreFlags{Dir: "d", Resume: true}, ctx: context.Background(), resumedAt: 2, checkpoint: true, fed: []string{"c"}, finished: true, checkpoints: 1},
		{name: "resumed past the end", flags: StoreFlags{Dir: "d", Resume: true}, ctx: context.Background(), resumedAt: 7, checkpoint: true, finished: true, checkpoints: 1},
		{name: "interrupted", flags: StoreFlags{Dir: "d"}, ctx: cancelled, checkpoint: true, checkpoints: 1},
		{name: "interrupted in memory", ctx: cancelled, checkpoint: true},
		{name: "failing block", flags: StoreFlags{Dir: "d"}, ctx: context.Background(), checkpoint: true, fail: "b", fed: []string{"a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at := tc.resumedAt
			var fed []string
			checkpoints := 0
			m := Model[string]{
				T: func() demon.BlockID { return demon.BlockID(at) },
				Read: func(path string) (string, error) {
					if path == tc.fail {
						return "", errors.New("unreadable")
					}
					return "block " + path, nil
				},
				AddBlock: func(blk string) error {
					fed = append(fed, strings.TrimPrefix(blk, "block "))
					at++
					return nil
				},
			}
			if tc.checkpoint {
				m.Checkpoint = func() error { checkpoints++; return nil }
			}
			finished, err := Feed(tc.ctx, tc.flags, files, m)
			if (err != nil) != (tc.fail != "") {
				t.Fatalf("err = %v", err)
			}
			if finished != tc.finished || !reflect.DeepEqual(fed, tc.fed) || checkpoints != tc.checkpoints {
				t.Errorf("finished %v, fed %v, %d checkpoints; want %v, %v, %d",
					finished, fed, checkpoints, tc.finished, tc.fed, tc.checkpoints)
			}
		})
	}
}
