package obs

// Prometheus / OpenMetrics text exposition for Snapshot, served from
// /metricsz?format=prometheus. The registry's internal naming stays
// "<subsystem>.<operation>.<unit>" with an optional "|k=v,k2=v2" label
// suffix (for example "serve.queue.depth|ns=retail"); this file is the only
// place that convention is parsed. Mapping rules:
//
//   - Family names gain a "demon_" prefix; '.' and '-' become '_' and any
//     byte outside [a-zA-Z0-9_] is dropped.
//   - Counters expose "<family>_total".
//   - Timers (named "*.ns") become "<family>_seconds" histograms: bucket
//     bounds and sums are scaled by 1e-9 so scrapers see base units. Each
//     exposes cumulative "_bucket{le=...}" series (the registry stores
//     per-bucket counts), plus "_sum" and "_count".
//   - Label values are escaped per the exposition format: \ → \\, " → \",
//     newline → \n.
//
// The output is sorted (families, then label sets) so equal snapshots render
// byte-identically, ends with "# EOF", and parses under both the classic
// text format and OpenMetrics.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type for the exposition output.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promLabel is one parsed instrument label.
type promLabel struct{ k, v string }

// splitInstrumentName parses "base|k=v,k2=v2" into the base name and its
// labels. Malformed pairs (no '=') are dropped rather than corrupting the
// exposition.
func splitInstrumentName(name string) (string, []promLabel) {
	i := strings.IndexByte(name, '|')
	if i < 0 {
		return name, nil
	}
	base := name[:i]
	var labels []promLabel
	for _, pair := range strings.Split(name[i+1:], ",") {
		if k, v, ok := strings.Cut(pair, "="); ok && k != "" {
			labels = append(labels, promLabel{k: promName(k, ""), v: v})
		}
	}
	return base, labels
}

// promName mangles a registry name into the Prometheus metric-name alphabet
// with the given prefix ("demon_" for families, "" for label keys). A name
// that mangles to "" or starts with a digit gets a '_' spine so the output
// always parses.
func promName(name, prefix string) string {
	out := make([]byte, 0, len(prefix)+len(name))
	out = append(out, prefix...)
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		case c == '.', c == '-':
			out = append(out, '_')
		}
	}
	if len(out) == len(prefix) || (out[0] >= '0' && out[0] <= '9') {
		out = append([]byte{'_'}, out...)
	}
	return string(out)
}

// appendEscapedLabelValue escapes a label value per the exposition format.
func appendEscapedLabelValue(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// renderLabels renders a (sorted, escaped) label block: {k="v",k2="v2"} or
// "" when empty.
func renderLabels(labels []promLabel) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]promLabel, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].k < sorted[j].k })
	buf := []byte{'{'}
	for i, l := range sorted {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.k...)
		buf = append(buf, '=', '"')
		buf = appendEscapedLabelValue(buf, l.v)
		buf = append(buf, '"')
	}
	return string(append(buf, '}'))
}

// promSeries is one instrument's rendered sample lines within a family.
type promSeries struct {
	labels string // sort key within the family
	lines  []string
}

// promFamily collects all series sharing one exposition family.
type promFamily struct {
	name   string
	typ    string // counter | gauge | histogram
	help   string
	series []promSeries
}

// formatSeconds renders a nanosecond quantity in seconds with enough digits
// to round-trip.
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// histSeries renders one timer as cumulative _bucket/_sum/_count lines in
// seconds. The snapshot stores only occupied per-bucket counts in increasing
// Le order; cumulation happens here.
func histSeries(family, labels string, t TimerSnapshot) promSeries {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	withLe := func(le string) string {
		if inner == "" {
			return `{le="` + le + `"}`
		}
		return "{" + inner + `,le="` + le + `"}`
	}
	var lines []string
	var cum int64
	for _, b := range t.Buckets {
		cum += b.Count
		lines = append(lines, family+"_bucket"+withLe(formatSeconds(b.Le))+" "+strconv.FormatInt(cum, 10))
	}
	lines = append(lines, family+"_bucket"+withLe("+Inf")+" "+strconv.FormatInt(t.Count, 10))
	lines = append(lines,
		family+"_sum"+labels+" "+formatSeconds(t.TotalNs),
		family+"_count"+labels+" "+strconv.FormatInt(t.Count, 10))
	return promSeries{labels: labels, lines: lines}
}

// WritePrometheus renders the snapshot in Prometheus text exposition format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	families := make(map[string]*promFamily)
	add := func(base, typ string, series promSeries) {
		key := promName(base, "demon_")
		f := families[key]
		if f == nil {
			f = &promFamily{name: key, typ: typ, help: "DEMON " + typ + " " + base}
			families[key] = f
		}
		f.series = append(f.series, series)
	}

	for name, v := range s.Counters {
		base, labels := splitInstrumentName(name)
		lb := renderLabels(labels)
		fam := promName(base, "demon_")
		add(base, "counter", promSeries{labels: lb,
			lines: []string{fam + "_total" + lb + " " + strconv.FormatInt(v, 10)}})
	}
	for name, v := range s.Gauges {
		base, labels := splitInstrumentName(name)
		lb := renderLabels(labels)
		fam := promName(base, "demon_")
		add(base, "gauge", promSeries{labels: lb,
			lines: []string{fam + lb + " " + strconv.FormatInt(v, 10)}})
	}
	for name, t := range s.Timers {
		base, labels := splitInstrumentName(name)
		lb := renderLabels(labels)
		// Timers record nanoseconds under a ".ns" suffix; expose seconds.
		secBase := strings.TrimSuffix(base, ".ns") + ".seconds"
		fam := promName(secBase, "demon_")
		add(secBase, "histogram", histSeries(fam, lb, t))
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range names {
		f := families[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		// The TYPE line names the family; counter samples carry _total.
		sample := f.name
		if f.typ == "counter" {
			sample = f.name + "_total"
		}
		p("# HELP %s %s\n", sample, f.help)
		p("# TYPE %s %s\n", sample, f.typ)
		for _, se := range f.series {
			for _, line := range se.lines {
				p("%s\n", line)
			}
		}
	}
	p("# EOF\n")
	return err
}
