package s3wlan_test

// Doc-drift guard: docs/OBSERVABILITY.md must list every registered
// metric with its correct kind and a description that begins with its
// HELP string, and must not list metrics that no longer exist. Blank imports force every registering package's
// package-level metric vars to initialize into obs.Default before the
// comparison runs.

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/obs"

	_ "github.com/s3wlan/s3wlan/internal/core"
	_ "github.com/s3wlan/s3wlan/internal/domain"
	_ "github.com/s3wlan/s3wlan/internal/federation"
	_ "github.com/s3wlan/s3wlan/internal/journal"
	_ "github.com/s3wlan/s3wlan/internal/obs/flight"
	_ "github.com/s3wlan/s3wlan/internal/protocol"
	_ "github.com/s3wlan/s3wlan/internal/runner"
	_ "github.com/s3wlan/s3wlan/internal/society"
	_ "github.com/s3wlan/s3wlan/internal/society/incremental"
	_ "github.com/s3wlan/s3wlan/internal/synth"
	_ "github.com/s3wlan/s3wlan/internal/wlan"
)

// docRow matches one metric table row: | `name` | kind | description |
var docRow = regexp.MustCompile("(?m)^\\| `([a-z0-9._]+)` \\| (counter|gauge|timer|histogram) \\| (.*) \\|$")

// dynamicMetric matches the two size gauges a named domain registers at
// construction; they are documented as a pattern, not as table rows.
var dynamicMetric = regexp.MustCompile(`^domain\.[^.]+\.(aps|users)$`)

// promName is the legal Prometheus metric-name charset.
var promName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// docMetric is one metric table row's kind and description.
type docMetric struct{ kind, desc string }

func loadDoc(t *testing.T) map[string]docMetric {
	t.Helper()
	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read metric reference: %v", err)
	}
	rows := make(map[string]docMetric)
	for _, m := range docRow.FindAllStringSubmatch(string(raw), -1) {
		name, kind := m[1], m[2]
		if prev, dup := rows[name]; dup {
			t.Errorf("docs/OBSERVABILITY.md lists %s twice (%s and %s)", name, prev.kind, kind)
		}
		rows[name] = docMetric{kind: kind, desc: m[3]}
	}
	if len(rows) == 0 {
		t.Fatal("no metric rows parsed from docs/OBSERVABILITY.md; table format changed?")
	}
	return rows
}

func TestMetricsMatchDocs(t *testing.T) {
	doc := loadDoc(t)
	live := obs.Default.Kinds()

	for name, kind := range live {
		if dynamicMetric.MatchString(name) {
			continue
		}
		row, ok := doc[name]
		switch help := obs.Default.Help(name); {
		case !ok:
			t.Errorf("metric %s (%s) is registered but missing from docs/OBSERVABILITY.md", name, kind)
		case row.kind != kind:
			t.Errorf("metric %s is a %s but documented as %s", name, kind, row.kind)
		case !strings.HasPrefix(row.desc, help):
			t.Errorf("metric %s: documented as %q, which does not begin with its HELP %q", name, row.desc, help)
		}
	}
	for name, row := range doc {
		if live[name] == "" {
			t.Errorf("docs/OBSERVABILITY.md lists %s (%s) but no such metric is registered", name, row.kind)
		}
	}
}

func TestMetricsHaveHelp(t *testing.T) {
	for name := range obs.Default.Kinds() {
		if obs.Default.Help(name) == "" {
			t.Errorf("metric %s registered without a help string", name)
		}
	}
}

// TestExposedNamesUnique asserts that sanitizing dotted names to the
// Prometheus charset introduces no collisions, including the _sum /
// _count / _bucket series that histograms expand into.
func TestExposedNamesUnique(t *testing.T) {
	series := make(map[string]string) // exposed series name -> source metric
	claim := func(exposed, source string) {
		if !promName.MatchString(exposed) {
			t.Errorf("metric %s exposes illegal series name %q", source, exposed)
		}
		if prev, dup := series[exposed]; dup && prev != source {
			t.Errorf("series %s exposed by both %s and %s", exposed, prev, source)
		}
		series[exposed] = source
	}
	for name, kind := range obs.Default.Kinds() {
		base := obs.SanitizeMetricName(name)
		switch kind {
		case "counter", "gauge":
			claim(base, name)
		case "histogram":
			claim(base+"_bucket", name)
			claim(base+"_sum", name)
			claim(base+"_count", name)
		default:
			t.Errorf("metric %s has unknown kind %q", name, kind)
		}
	}
}
