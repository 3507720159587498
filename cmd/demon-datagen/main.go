// Command demon-datagen generates the synthetic datasets of the DEMON
// experiments as plain-text block files or as an NDJSON block stream.
//
// Usage:
//
//	demon-datagen -kind tx -spec 2M.20L.1I.4pats.4plen -blocks 4 -blocksize 50000 -dir data/
//	demon-datagen -kind points -spec 1M.50c.5d -blocks 2 -blocksize 100000 -dir data/
//	demon-datagen -kind proxy -granularity 6 -dir data/
//	demon-datagen -kind tx -format ndjson -blocks 4 -dir - | curl -X POST --data-binary @- \
//	     localhost:8080/v1/namespaces/retail/blocks
//
// In the default text format transaction blocks are written as block-NNN.txt
// with one transaction per line (space-separated item ids) and point blocks
// with one point per line (space-separated coordinates). Proxy blocks are
// the simulated DEC trace segmented at the given granularity.
//
// With -format ndjson every block becomes one JSON object per line —
// {"txs":[[...]]} or {"points":[[...]]} — the wire format demon-serve
// ingests. Pass -dir - to stream the blocks to stdout instead of writing
// blocks.ndjson into the output directory.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/pointgen"
	"github.com/demon-mining/demon/internal/proxysim"
	"github.com/demon-mining/demon/internal/quest"
)

func main() { cli.Main("demon-datagen", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	kind := fs.String("kind", "tx", "dataset kind: tx, points, or proxy")
	spec := fs.String("spec", "2M.20L.1I.4pats.4plen", "dataset spec (quest or pointgen notation)")
	blocks := fs.Int("blocks", 4, "number of blocks to generate (tx/points)")
	blockSize := fs.Int("blocksize", 50000, "records per block (tx/points)")
	granularity := fs.Int("granularity", 6, "block granularity in hours (proxy)")
	rate := fs.Int("rate", 400, "base requests per hour (proxy)")
	seed := fs.Int64("seed", 1, "random seed")
	dir := fs.String("dir", "data", "output directory, or - for NDJSON on stdout")
	format := fs.String("format", "text", "output format: text (one file per block) or ndjson (one JSON block per line)")
	return func(context.Context) error {
		return run(*kind, *spec, *format, *blocks, *blockSize, *granularity, *rate, *seed, *dir, os.Stdout)
	}
}

func run(kind, spec, format string, blocks, blockSize, granularity, rate int, seed int64, dir string, stdout io.Writer) error {
	switch format {
	case "text", "ndjson":
	default:
		return fmt.Errorf("unknown format %q (want text or ndjson)", format)
	}
	if dir == "-" && format != "ndjson" {
		return fmt.Errorf("-dir - (stdout) requires -format ndjson")
	}

	// out collects the generated blocks; the sink depends on format/dir.
	out, status, err := newBlockSink(format, dir, stdout)
	if err != nil {
		return err
	}

	var wrote string               // what the status line reports
	var infos []proxysim.BlockInfo // the proxy kind's per-block metadata
	switch kind {
	case "tx":
		cfg, err := quest.ParseSpec(spec)
		if err != nil {
			return err
		}
		cfg.Seed = seed
		gen, err := quest.New(cfg)
		if err != nil {
			return err
		}
		for i := 1; i <= blocks; i++ {
			if err := out.emit(i, txBlock(gen.Block(blockseq.ID(i), blockSize))); err != nil {
				return err
			}
		}
		wrote = fmt.Sprintf("%d transaction blocks of %d", blocks, blockSize)
	case "points":
		cfg, err := pointgen.ParseSpec(spec)
		if err != nil {
			return err
		}
		cfg.Seed = seed
		cfg.Noise = 0.02
		gen, err := pointgen.New(cfg)
		if err != nil {
			return err
		}
		for i := 1; i <= blocks; i++ {
			if err := out.emit(i, blockio.PointBlock(gen.Block(blockseq.ID(i), blockSize).Points)); err != nil {
				return err
			}
		}
		wrote = fmt.Sprintf("%d point blocks of %d", blocks, blockSize)
	case "proxy":
		trace := proxysim.Generate(proxysim.Config{Seed: seed, RequestsPerHour: rate})
		var txBlocks []*itemset.TxBlock
		if txBlocks, infos, err = trace.Segment(granularity); err != nil {
			return err
		}
		for i, blk := range txBlocks {
			if err := out.emit(i+1, txBlock(blk)); err != nil {
				return err
			}
		}
		wrote = fmt.Sprintf("%d proxy blocks (%dh granularity)", len(txBlocks), granularity)
	default:
		return fmt.Errorf("unknown kind %q (want tx, points, or proxy)", kind)
	}
	if err := out.close(); err != nil {
		return err
	}
	if infos != nil && dir != "-" {
		if err := writeProxyMeta(dir, infos); err != nil {
			return err
		}
	}
	fmt.Fprintf(status, "wrote %s to %s\n", wrote, dir)
	return nil
}

// txBlock puts a generated transaction block in wire form.
func txBlock(blk *itemset.TxBlock) blockio.Block {
	rows := make([][]itemset.Item, len(blk.Txs))
	for i, tx := range blk.Txs {
		rows[i] = tx.Items
	}
	return blockio.TxBlock(rows)
}

// blockSink takes the generated blocks, numbered from 1, in one of the
// output formats.
type blockSink struct {
	emit  func(n int, b blockio.Block) error
	close func() error
}

// newBlockSink also returns the writer for the human status line: stdout
// normally, stderr when the NDJSON stream itself occupies stdout.
func newBlockSink(format, dir string, stdout io.Writer) (*blockSink, io.Writer, error) {
	if dir != "-" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	if format == "text" {
		return &blockSink{
			emit:  func(n int, b blockio.Block) error { return writeTextBlock(dir, n, b) },
			close: func() error { return nil },
		}, stdout, nil
	}

	w, status := bufio.NewWriter(stdout), io.Writer(os.Stderr)
	closeFile := func() error { return nil }
	if dir != "-" {
		f, err := os.Create(filepath.Join(dir, "blocks.ndjson"))
		if err != nil {
			return nil, nil, err
		}
		w, status, closeFile = bufio.NewWriter(f), stdout, f.Close
	}
	enc := blockio.NewEncoder(w)
	return &blockSink{
		emit: func(_ int, b blockio.Block) error { return enc.Encode(b) },
		close: func() error {
			if err := w.Flush(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		},
	}, status, nil
}

// writeFile creates path and writes what fill produces through a buffer.
func writeFile(path string, fill func(w *bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTextBlock writes block-NNN.txt: one transaction (item ids) or one
// point (coordinates) per line, space-separated.
func writeTextBlock(dir string, n int, b blockio.Block) error {
	return writeFile(filepath.Join(dir, fmt.Sprintf("block-%03d.txt", n)), func(w *bufio.Writer) {
		for _, tx := range b.Txs {
			for i, it := range tx {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, it)
			}
			fmt.Fprintln(w)
		}
		for _, p := range b.Points {
			for d, x := range p {
				if d > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, strconv.FormatFloat(x, 'g', -1, 64))
			}
			fmt.Fprintln(w)
		}
	})
}

func writeProxyMeta(dir string, infos []proxysim.BlockInfo) error {
	return writeFile(filepath.Join(dir, "blocks.tsv"), func(w *bufio.Writer) {
		fmt.Fprintln(w, "block\tperiod\tkind")
		for i, info := range infos {
			fmt.Fprintf(w, "%d\t%s\t%s\n", i+1, info.Label(), info.Kind)
		}
	})
}
