// Command demon-patterns discovers compact sequences of similar blocks in a
// systematically evolving transactional database — the DEMON pattern
// detection of Section 4, driven by the FOCUS frequent-itemset deviation.
//
// Usage:
//
//	demon-patterns -minsup 0.01 -alpha 0.01 data/block-*.txt
//	demon-patterns -minsup 0.01 -alpha 0.01 -labels data/blocks.tsv data/block-*.txt
//
// Blocks are compared pairwise; two blocks are similar when the probability
// that they come from the same process is at least alpha. The tool prints
// the maximal compact sequences and, with -cycle p, the longest cyclic
// sub-pattern of period p found in any sequence.
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/textio"
)

func main() { cli.Main("demon-patterns", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	minsup := fs.Float64("minsup", 0.01, "per-block mining threshold κ")
	alpha := fs.Float64("alpha", 0.01, "similarity significance level")
	window := fs.Int("window", 0, "restrict detection to the most recent blocks (0 = unrestricted)")
	cycle := fs.Int("cycle", 0, "report the longest cyclic sub-pattern of this period")
	labelsPath := fs.String("labels", "", "optional TSV (block<TAB>label...) naming blocks in the output")
	return func(context.Context) error {
		if fs.NArg() == 0 {
			return cli.Usagef("no block files given")
		}
		return run(*minsup, *alpha, *window, *cycle, *labelsPath, fs.Args())
	}
}

func loadLabels(path string) (map[demon.BlockID]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	labels := make(map[demon.BlockID]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), "\t", 3)
		if len(fields) < 2 {
			continue
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			continue // header or comment row
		}
		labels[demon.BlockID(id)] = fields[1]
	}
	return labels, sc.Err()
}

func run(minsup, alpha float64, window, cycle int, labelsPath string, files []string) error {
	var labels map[demon.BlockID]string
	if labelsPath != "" {
		var err error
		if labels, err = loadLabels(labelsPath); err != nil {
			return err
		}
	}
	// names renders a block sequence, with the blocks' labels where known.
	names := func(seq []demon.BlockID) string {
		parts := make([]string, len(seq))
		for i, id := range seq {
			parts[i] = fmt.Sprintf("D%d", id)
			if l, ok := labels[id]; ok {
				parts[i] = fmt.Sprintf("D%d(%s)", id, l)
			}
		}
		return strings.Join(parts, ", ")
	}

	m, err := demon.NewMonitor(demon.MonitorConfig{MinSupport: minsup, Alpha: alpha, Window: window})
	if err != nil {
		return err
	}
	for _, path := range files {
		rows, err := textio.ReadTransactionsFile(path)
		if err != nil {
			return err
		}
		rep, err := m.AddBlock(rows)
		if err != nil {
			return err
		}
		fmt.Printf("block %d: %d deviations in %v, similar to %d earlier blocks, extended %d sequences\n",
			rep.Block, rep.Deviations, rep.Elapsed.Round(100), rep.SimilarTo, rep.Extended)
	}

	fmt.Println("\nmaximal compact sequences:")
	for _, seq := range m.Patterns() {
		fmt.Printf("  <%s>\n", names(seq))
		if cycle > 0 {
			if c := demon.CyclicPattern(seq, demon.BlockID(cycle)); c != nil {
				fmt.Printf("    cyclic period %d: <%s>\n", cycle, names(c))
			}
		}
	}
	return nil
}
