package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/focus"
	"github.com/demon-mining/demon/internal/pattern"
	"github.com/demon-mining/demon/internal/proxysim"
)

// Fig9Config parameterizes the qualitative pattern-detection experiment
// (the Figure 9 table): compact sequences discovered in the (simulated) web
// proxy trace at several block granularities.
type Fig9Config struct {
	// Granularities are the block widths in hours (paper: 4, 6, 8, 12, 24).
	Granularities []int
	// MinSupport is the per-block mining threshold (paper: 1%).
	MinSupport float64
	// Alpha is the similarity significance level (paper reports deviations
	// significant at 99%, i.e. α = 0.01).
	Alpha float64
	// RequestsPerHour scales the trace volume.
	RequestsPerHour int
	Seed            int64
}

// DefaultFig9Config returns the paper's parameters at p's seed; the trace
// does not scale.
func DefaultFig9Config(p Params) Fig9Config {
	return Fig9Config{
		Granularities:   []int{4, 6, 8, 12, 24},
		MinSupport:      0.01,
		Alpha:           0.01,
		RequestsPerHour: 400,
		Seed:            p.Seed,
	}
}

// Fig9Pattern is one discovered compact sequence with its human-readable
// block labels.
type Fig9Pattern struct {
	GranularityHours int
	Blocks           []blockseq.ID
	Labels           []string
	// Kinds summarizes the day kinds of the member blocks.
	Kinds []proxysim.DayKind
}

// Fig9Result holds all patterns per granularity.
type Fig9Result struct {
	Patterns []Fig9Pattern
	// AnomalyExcluded reports, per granularity, whether no discovered
	// multi-block pattern contains an anomalous (9-9-1996) office-hours
	// block together with regular workday blocks — the paper's headline
	// qualitative finding.
	AnomalyExcluded map[int]bool
}

// Figure9 runs pattern detection on the simulated trace at every
// granularity and returns the discovered maximal compact sequences.
func Figure9(cfg Fig9Config) (*Fig9Result, error) {
	trace := proxysim.Generate(proxysim.Config{Seed: cfg.Seed, RequestsPerHour: cfg.RequestsPerHour})
	res := &Fig9Result{AnomalyExcluded: make(map[int]bool)}
	for _, g := range cfg.Granularities {
		blocks, infos, err := trace.Segment(g)
		if err != nil {
			return nil, err
		}
		differ := focus.ItemsetDiffer{MinSupport: cfg.MinSupport}
		det, err := pattern.New[*focus.ItemsetModel](differ, cfg.Alpha, 0)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			if b.Len() == 0 {
				continue
			}
			model, err := differ.Mine(b)
			if err == nil {
				_, err = det.AddBlock(b.ID, model)
			}
			if err != nil {
				return nil, fmt.Errorf("bench: figure 9 granularity %dh block %d: %w", g, b.ID, err)
			}
		}
		infoByID := make(map[blockseq.ID]proxysim.BlockInfo, len(infos))
		for _, info := range infos {
			infoByID[info.ID] = info
		}
		anomalyClean := true
		for _, seq := range det.Maximal() {
			if len(seq) < 2 {
				continue // singletons are not reported as patterns
			}
			p := Fig9Pattern{GranularityHours: g, Blocks: seq}
			hasAnomalyOffice, hasWorkday := false, false
			for _, id := range seq {
				info := infoByID[id]
				p.Labels = append(p.Labels, info.Label())
				p.Kinds = append(p.Kinds, info.Kind)
				switch info.Kind {
				case proxysim.Anomalous:
					if h := info.Start.Hour(); h >= 8 && h < 20 {
						hasAnomalyOffice = true
					}
				case proxysim.Workday:
					if h := info.Start.Hour(); h >= 8 && h < 20 {
						hasWorkday = true
					}
				}
			}
			if hasAnomalyOffice && hasWorkday {
				anomalyClean = false
			}
			res.Patterns = append(res.Patterns, p)
		}
		res.AnomalyExcluded[g] = anomalyClean
	}
	return res, nil
}

// WriteFig9 renders the discovered patterns in the style of the Figure 9
// table.
func WriteFig9(w io.Writer, res *Fig9Result) {
	fmt.Fprintln(w, "Figure 9: patterns discovered in the (simulated) web proxy traces")
	cur := -1
	for _, p := range res.Patterns {
		if p.GranularityHours != cur {
			cur = p.GranularityHours
			fmt.Fprintf(w, "--- granularity %d hr (anomalous Monday excluded from workday patterns: %v)\n",
				cur, res.AnomalyExcluded[cur])
		}
		fmt.Fprintf(w, "  pattern of %d blocks: %s ... %s\n",
			len(p.Blocks), p.Labels[0], p.Labels[len(p.Labels)-1])
	}
}

// Fig10Config parameterizes the per-block pattern-maintenance cost series
// (Figure 10): the 82 six-hour blocks of the trace.
type Fig10Config struct {
	GranularityHours int
	MinSupport       float64
	Alpha            float64
	RequestsPerHour  int
	Seed             int64
}

// DefaultFig10Config returns the paper's parameters at p's seed; the trace
// does not scale.
func DefaultFig10Config(p Params) Fig10Config {
	return Fig10Config{GranularityHours: 6, MinSupport: 0.01, Alpha: 0.01, RequestsPerHour: 400, Seed: p.Seed}
}

// Fig10Row is one point of the Figure 10 series.
type Fig10Row struct {
	// BlockNumber follows the paper's 0-based numbering.
	BlockNumber int
	Label       string
	Kind        proxysim.DayKind
	Elapsed     time.Duration
	// Elapsed is mining the block's model once plus DeviationTime, the
	// deviation computations against the earlier models, plus ExtendTime,
	// the sequence-extension bookkeeping, so the figure's cost breakdown is
	// reproducible from a single run.
	DeviationTime time.Duration
	ExtendTime    time.Duration
	// SimilarTo is how many earlier blocks this block matched.
	SimilarTo int
}

// Figure10 replays the trace through the detector and records the per-block
// update time.
func Figure10(cfg Fig10Config) ([]Fig10Row, error) {
	trace := proxysim.Generate(proxysim.Config{Seed: cfg.Seed, RequestsPerHour: cfg.RequestsPerHour})
	blocks, infos, err := trace.Segment(cfg.GranularityHours)
	if err != nil {
		return nil, err
	}
	differ := focus.ItemsetDiffer{MinSupport: cfg.MinSupport}
	det, err := pattern.New[*focus.ItemsetModel](differ, cfg.Alpha, 0)
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for i, b := range blocks {
		if b.Len() == 0 {
			continue
		}
		start := time.Now()
		model, err := differ.Mine(b)
		var st pattern.Stats
		if err == nil {
			st, err = det.AddBlock(b.ID, model)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: figure 10 block %d: %w", b.ID, err)
		}
		rows = append(rows, Fig10Row{
			BlockNumber:   i,
			Label:         infos[i].Label(),
			Kind:          infos[i].Kind,
			Elapsed:       time.Since(start),
			DeviationTime: st.DeviationTime,
			ExtendTime:    st.ExtendTime,
			SimilarTo:     st.SimilarTo,
		})
	}
	return rows, nil
}

// WriteFig10 renders the series with its cost decomposition.
func WriteFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Figure 10: time to update compact sequences per block (seconds)")
	fmt.Fprintf(w, "%6s %-22s %-16s %10s %10s %10s %10s\n",
		"block", "period", "kind", "time", "deviation", "extend", "similar")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %-22s %-16s %10.4f %10.4f %10.4f %10d\n",
			r.BlockNumber, r.Label, r.Kind, r.Elapsed.Seconds(),
			r.DeviationTime.Seconds(), r.ExtendTime.Seconds(), r.SimilarTo)
	}
}
