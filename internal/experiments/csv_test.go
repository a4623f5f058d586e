package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	r := csv.NewReader(buf)
	var rows [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("CSV parse: %v", err)
		}
		rows = append(rows, rec)
	}
	if len(rows) < 2 {
		t.Fatalf("CSV has no data rows")
	}
	return rows
}

func TestExperimentCSVExports(t *testing.T) {
	d := prepareSmall(t)

	t.Run("fig10", func(t *testing.T) {
		res, err := Fig10(d, []int64{60, 300}, []float64{0.3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if rows := parseCSV(t, &buf); len(rows)-1 != 2 {
			t.Errorf("rows = %d, want 2", len(rows)-1)
		}
	})

	t.Run("fig11", func(t *testing.T) {
		res, err := Fig11(d, []int{1, 5}, []float64{0.3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		parseCSV(t, &buf)
	})

	t.Run("fig12", func(t *testing.T) {
		res, err := Fig12(d)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf)
		if len(rows)-1 != 2*len(res.Domains) {
			t.Errorf("rows = %d, want %d", len(rows)-1, 2*len(res.Domains))
		}
	})

}

func TestExtractAndCompareSeries(t *testing.T) {
	d := prepareSmall(t)
	results, err := d.replayS3AndLLF("series")
	if err != nil {
		t.Fatal(err)
	}
	sa, err := scoreReplay(results[0], d.Campus.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := scoreReplay(results[1], d.Campus.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sa.series, sb.series
	if a.Policy != "S3" || b.Policy != "LLF" {
		t.Errorf("policies = %q, %q", a.Policy, b.Policy)
	}
	if len(a.Times) == 0 || len(a.Times) != len(b.Times) {
		t.Fatalf("times = %d vs %d", len(a.Times), len(b.Times))
	}
	var buf bytes.Buffer
	if err := WriteComparisonSeriesCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	wantRows := len(a.ByDomain) * len(a.Times)
	if len(rows)-1 != wantRows {
		t.Errorf("rows = %d, want %d", len(rows)-1, wantRows)
	}
	// Mismatched series error.
	short := &PolicySeries{Policy: "x", Times: a.Times[:1]}
	if err := WriteComparisonSeriesCSV(&buf, a, short); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestFig12SeriesCSV(t *testing.T) {
	d := prepareSmall(t)
	res, err := Fig12(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf)
	var empty Fig12Result
	if err := empty.WriteSeriesCSV(&buf); err == nil {
		t.Error("missing series should error")
	}
}

// TestComparisonSeriesCSVDomainOrder: the series CSV lists its domains in
// ascending order, so two writes of the same series are byte-equal even
// though ByDomain is a map.
func TestComparisonSeriesCSVDomainOrder(t *testing.T) {
	a := &PolicySeries{Policy: "S3", Times: []int64{0, 300}, ByDomain: map[trace.ControllerID][]float64{}}
	b := &PolicySeries{Policy: "LLF", Times: a.Times, ByDomain: map[trace.ControllerID][]float64{}}
	for i := 0; i < 12; i++ {
		c := trace.ControllerID(fmt.Sprintf("ctl-%d", i))
		a.ByDomain[c] = []float64{1, float64(i)}
		b.ByDomain[c] = []float64{float64(i), 1}
	}
	var first, second bytes.Buffer
	if err := WriteComparisonSeriesCSV(&first, a, b); err != nil {
		t.Fatal(err)
	}
	if err := WriteComparisonSeriesCSV(&second, a, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two writes of one series differ")
	}
	rows := parseCSV(t, &first)[1:]
	if len(rows) != 12*len(a.Times) {
		t.Fatalf("rows = %d, want %d", len(rows), 12*len(a.Times))
	}
	domains := make([]string, len(rows))
	for i, row := range rows {
		domains[i] = row[1]
	}
	if !sort.StringsAreSorted(domains) {
		t.Errorf("domain column not ascending: %v", domains)
	}
}
