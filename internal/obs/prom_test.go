package obs

import (
	"strings"
	"testing"
	"time"
)

// promLines renders the snapshot and splits it into lines.
func promLines(t *testing.T, s Snapshot) []string {
	t.Helper()
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", out)
	}
	return strings.Split(strings.TrimSuffix(out, "\n"), "\n")
}

// parseSample splits a non-comment exposition line into series (name plus
// label block) and value.
func parseSample(t *testing.T, line string) (series, value string) {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		t.Fatalf("malformed sample line %q", line)
	}
	return line[:i], line[i+1:]
}

func TestPromNameMangling(t *testing.T) {
	for in, want := range map[string]string{
		"miner.blocks":       "demon_miner_blocks",
		"gemm.slot_updates":  "demon_gemm_slot_updates",
		"serve-queue.depth":  "demon_serve_queue_depth",
		"weird name!":        "demon_weirdname",
		"":                   "_demon_",
		"9starts.with.digit": "demon_9starts_with_digit",
		"UPPER.case":         "demon_UPPER_case",
	} {
		if got := promName(in, "demon_"); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	// Label keys use the empty prefix; a digit-leading key still gets a spine.
	if got := promName("9key", ""); got != "_9key" {
		t.Errorf("promName(9key, \"\") = %q", got)
	}
}

func TestPromLabelParsingAndEscaping(t *testing.T) {
	base, labels := splitInstrumentName(`serve.queue.depth|ns=a"b\c` + "\n" + `d,kind=itemset`)
	if base != "serve.queue.depth" {
		t.Fatalf("base = %q", base)
	}
	if len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}
	rendered := renderLabels(labels)
	want := `{kind="itemset",ns="a\"b\\c\nd"}`
	if rendered != want {
		t.Errorf("renderLabels = %q, want %q", rendered, want)
	}

	// Malformed pairs (no '=') are dropped, not emitted broken.
	_, labels = splitInstrumentName("x|oops,k=v")
	if len(labels) != 1 || labels[0].k != "k" {
		t.Errorf("malformed pair not dropped: %v", labels)
	}

	// No '|' means no labels.
	base, labels = splitInstrumentName("plain.name")
	if base != "plain.name" || labels != nil {
		t.Errorf("plain name parsed as %q %v", base, labels)
	}
}

func TestPromCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("miner.blocks").Add(7)
	r.Gauge("serve.queue.depth|ns=retail").Set(3)
	r.Gauge("serve.queue.depth|ns=ads").Set(5)

	lines := promLines(t, r.Snapshot())
	var samples []string
	typeFor := map[string]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typeFor[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples = append(samples, line)
	}
	if typeFor["demon_miner_blocks_total"] != "counter" {
		t.Errorf("counter TYPE line missing or wrong: %v", typeFor)
	}
	if typeFor["demon_serve_queue_depth"] != "gauge" {
		t.Errorf("gauge TYPE line missing or wrong: %v", typeFor)
	}

	bySeries := map[string]string{}
	for _, s := range samples {
		series, v := parseSample(t, s)
		bySeries[series] = v
	}
	if bySeries["demon_miner_blocks_total"] != "7" {
		t.Errorf("counter sample: %v", bySeries)
	}
	if bySeries[`demon_serve_queue_depth{ns="retail"}`] != "3" ||
		bySeries[`demon_serve_queue_depth{ns="ads"}`] != "5" {
		t.Errorf("labeled gauge samples: %v", bySeries)
	}
}

// TestPromHistogramCumulative checks bucket series are cumulative,
// monotonically non-decreasing, and capped by the +Inf bucket == _count.
func TestPromHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Timer("miner.candidates.ns")
	for _, v := range []time.Duration{1, 2, 3, 100, 1000, 1000000} {
		h.Record(v)
	}
	tm := r.Timer("miner.addblock.ns")
	tm.Record(50 * time.Microsecond)
	tm.Record(2 * time.Millisecond)
	tm.Record(2 * time.Millisecond)

	lines := promLines(t, r.Snapshot())
	checkFamily := func(family string, wantCount string) {
		t.Helper()
		var last int64 = -1
		var infVal, countVal string
		for _, line := range lines {
			if strings.HasPrefix(line, "#") {
				continue
			}
			series, v := parseSample(t, line)
			switch {
			case strings.HasPrefix(series, family+"_bucket{"):
				var n int64
				for _, c := range v {
					n = n*10 + int64(c-'0')
				}
				if n < last {
					t.Errorf("%s buckets not monotone: %d after %d (%s)", family, n, last, line)
				}
				last = n
				if strings.Contains(series, `le="+Inf"`) {
					infVal = v
				}
			case series == family+"_count":
				countVal = v
			}
		}
		if last < 0 {
			t.Fatalf("no bucket series for %s", family)
		}
		if infVal != wantCount || countVal != wantCount {
			t.Errorf("%s +Inf=%q count=%q, want %q", family, infVal, countVal, wantCount)
		}
	}
	checkFamily("demon_miner_candidates_seconds", "6")
	// The timer drops its ".ns" suffix and exposes seconds.
	checkFamily("demon_miner_addblock_seconds", "3")

	for _, line := range lines {
		if strings.Contains(line, "addblock_seconds_sum") {
			_, v := parseSample(t, line)
			if !strings.HasPrefix(v, "0.00405") {
				t.Errorf("timer sum not scaled to seconds: %s", line)
			}
		}
		if strings.Contains(line, "demon_miner_addblock_ns") {
			t.Errorf("raw nanosecond family leaked: %s", line)
		}
	}
}

// TestPromSortedDeterministic renders the same snapshot twice and also checks
// family blocks arrive in sorted order.
func TestPromSortedDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Inc()
	r.Counter("a.first").Inc()
	r.Gauge("m.mid|ns=b").Set(1)
	r.Gauge("m.mid|ns=a").Set(2)

	var one, two strings.Builder
	if err := r.Snapshot().WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Errorf("equal snapshots rendered differently:\n%s\n---\n%s", one.String(), two.String())
	}

	var families []string
	for _, line := range strings.Split(one.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Errorf("families out of order: %v", families)
		}
	}
	// Labeled series within a family sort by label block.
	out := one.String()
	if strings.Index(out, `ns="a"`) > strings.Index(out, `ns="b"`) {
		t.Errorf("label sets out of order:\n%s", out)
	}
}
