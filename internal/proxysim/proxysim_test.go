package proxysim

import (
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/focus"
)

func TestKindOfDay(t *testing.T) {
	tests := []struct {
		day  int
		want DayKind
	}{
		{2, Weekend}, // Labor Day (Monday)
		{3, Workday}, {4, Workday}, {5, Workday}, {6, Workday},
		{7, Weekend}, {8, Weekend},
		{9, Anomalous},
		{10, Workday}, {13, Workday},
		{14, Weekend}, {15, Weekend},
		{16, Workday}, {20, Workday},
		{21, Weekend}, {22, Weekend},
	}
	for _, tc := range tests {
		d := time.Date(1996, time.September, tc.day, 10, 0, 0, 0, time.UTC)
		if got := KindOfDay(d); got != tc.want {
			t.Errorf("KindOfDay(9-%d) = %v, want %v", tc.day, got, tc.want)
		}
	}
}

func TestCalendarSanity(t *testing.T) {
	// 9-2-1996 really was a Monday; 9-9-1996 too.
	if wd := time.Date(1996, 9, 2, 0, 0, 0, 0, time.UTC).Weekday(); wd != time.Monday {
		t.Fatalf("9-2-1996 is %v", wd)
	}
	if wd := time.Date(1996, 9, 9, 0, 0, 0, 0, time.UTC).Weekday(); wd != time.Monday {
		t.Fatalf("9-9-1996 is %v", wd)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 1, RequestsPerHour: 50})
	b := Generate(Config{Seed: 1, RequestsPerHour: 50})
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("nondeterministic request count")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestRequestsWithinSpanAndDomain(t *testing.T) {
	tr := Generate(Config{Seed: 2, RequestsPerHour: 30})
	start, end := Span()
	for _, r := range tr.Requests {
		if r.Time.Before(start) || !r.Time.Before(end) {
			t.Fatalf("request at %v outside trace span", r.Time)
		}
		if r.Type < 0 || r.Type >= NumTypes {
			t.Fatalf("request type %d outside [0, %d)", r.Type, NumTypes)
		}
		if r.Bytes < 0 {
			t.Fatalf("negative response size %d", r.Bytes)
		}
	}
}

func TestSegmentSixHourBlocks(t *testing.T) {
	tr := Generate(Config{Seed: 3, RequestsPerHour: 30})
	blocks, infos, err := tr.Segment(6)
	if err != nil {
		t.Fatal(err)
	}
	// Noon 9-2 to midnight 9-22 is 490 hours... the paper counts 82 blocks.
	if len(blocks) != 82 {
		t.Fatalf("6-hour segmentation yields %d blocks, want 82", len(blocks))
	}
	if len(infos) != len(blocks) {
		t.Fatal("infos and blocks disagree")
	}
	total := 0
	prevEnd := 0
	for i, b := range blocks {
		if b.ID != infos[i].ID {
			t.Fatal("id mismatch")
		}
		if b.FirstTID != prevEnd {
			t.Fatalf("block %d FirstTID %d, want %d", i, b.FirstTID, prevEnd)
		}
		prevEnd += b.Len()
		total += b.Len()
		for _, tx := range b.Txs {
			if len(tx.Items) != 2 {
				t.Fatalf("transaction with %d items, want 2", len(tx.Items))
			}
			if tx.Items[0] >= NumTypes || tx.Items[1] < BucketItemBase {
				t.Fatalf("transaction items %v malformed", tx.Items)
			}
		}
	}
	if total != len(tr.Requests) {
		t.Fatalf("segmented %d transactions, trace has %d requests", total, len(tr.Requests))
	}
}

func TestSegmentGranularities(t *testing.T) {
	tr := Generate(Config{Seed: 4, RequestsPerHour: 10})
	wants := map[int]int{4: 123, 6: 82, 8: 62, 12: 41, 24: 21}
	for g, want := range wants {
		blocks, _, err := tr.Segment(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != want {
			t.Errorf("granularity %dh: %d blocks, want %d", g, len(blocks), want)
		}
	}
	if _, _, err := tr.Segment(0); err == nil {
		t.Fatal("Segment accepted granularity 0")
	}
}

func TestBlockInfoLabel(t *testing.T) {
	tr := Generate(Config{Seed: 5, RequestsPerHour: 5})
	_, infos, err := tr.Segment(6)
	if err != nil {
		t.Fatal(err)
	}
	if got := infos[0].Label(); got != "Mon 09-02 12:00-18:00" {
		t.Fatalf("first block label = %q", got)
	}
	if infos[0].Kind != Weekend {
		t.Fatalf("Labor Day block kind = %v", infos[0].Kind)
	}
}

// TestSimilarityStructure verifies the trace reproduces the paper's
// findings: same-kind working-day blocks are similar, the anomalous Monday
// and weekend blocks are dissimilar from working-day blocks, and late-night
// weekday blocks look like weekend blocks.
func TestSimilarityStructure(t *testing.T) {
	tr := Generate(Config{Seed: 6, RequestsPerHour: 400})
	blocks, infos, err := tr.Segment(24)
	if err != nil {
		t.Fatal(err)
	}
	d := focus.ItemsetDiffer{MinSupport: 0.01}

	find := func(day int) int {
		for i, info := range infos {
			if info.Start.Day() == day {
				return i
			}
		}
		t.Fatalf("no block starting on 9-%d", day)
		return -1
	}
	tue1 := find(3)  // Tuesday 9-3
	wed1 := find(4)  // Wednesday 9-4
	mon2 := find(9)  // anomalous Monday
	sat := find(7)   // Saturday
	tue2 := find(10) // Tuesday 9-10

	similar := func(i, j int) bool {
		dev, err := d.Deviation(blocks[i], blocks[j])
		if err != nil {
			t.Fatal(err)
		}
		return dev.PValue >= 0.01
	}

	if !similar(tue1, wed1) {
		t.Error("adjacent working days dissimilar")
	}
	if !similar(tue1, tue2) {
		t.Error("working days a week apart dissimilar")
	}
	if similar(tue1, mon2) {
		t.Error("anomalous Monday similar to a working day")
	}
	if similar(tue1, sat) {
		t.Error("Saturday similar to a working day")
	}
	if similar(mon2, sat) {
		t.Error("anomalous Monday similar to Saturday (profiles should differ)")
	}
}

// TestNightBlocksResembleWeekends checks the "late night weekday blocks can
// be similar to blocks on weekends" finding at 4-hour granularity.
func TestNightBlocksResembleWeekends(t *testing.T) {
	tr := Generate(Config{Seed: 7, RequestsPerHour: 400})
	blocks, infos, err := tr.Segment(4)
	if err != nil {
		t.Fatal(err)
	}
	d := focus.ItemsetDiffer{MinSupport: 0.01}

	var night, weekendDay int
	night, weekendDay = -1, -1
	for i, info := range infos {
		// A 0:00-4:00 block on a working day.
		if night < 0 && info.Kind == Workday && info.Start.Hour() == 0 {
			night = i
		}
		// A Saturday midday block.
		if weekendDay < 0 && info.Start.Weekday() == time.Saturday && info.Start.Hour() == 12 {
			weekendDay = i
		}
	}
	if night < 0 || weekendDay < 0 {
		t.Fatal("required blocks not found")
	}
	dev, err := d.Deviation(blocks[night], blocks[weekendDay])
	if err != nil {
		t.Fatal(err)
	}
	if dev.PValue < 0.01 {
		t.Fatalf("weekday night block not similar to weekend block: %+v", dev)
	}
}

func TestDayKindString(t *testing.T) {
	if Workday.String() != "workday" || Weekend.String() == "" || Anomalous.String() == "" {
		t.Fatal("DayKind.String broken")
	}
	if DayKind(9).String() == "" {
		t.Fatal("unknown DayKind printed empty")
	}
}
