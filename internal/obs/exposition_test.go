package obs

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"core.select.calls":  "core_select_calls",
		"domain.live.users":  "domain_live_users",
		"journal.seq":        "journal_seq",
		"already_fine:ok":    "already_fine:ok",
		"9starts.with.digit": "_9starts_with_digit",
		"weird µ char":       "weird____char", // µ is 2 bytes, each sanitized
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promFamily is one metric family parsed back from the text exposition.
type promFamily struct {
	typ     string
	help    string
	samples map[string]float64 // sample key (name or name{le="x"}) -> value
}

// parsePrometheus is a minimal parser for the Prometheus text
// exposition format, v0.0.4: # HELP and # TYPE comment lines, plus
// "name value" and `name{le="x"} value` samples. It fails the test on
// anything it cannot parse — which is the point: the exposition must
// stay inside the subset every scraper understands.
func parsePrometheus(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	family := func(name string) *promFamily {
		// _sum/_count/_bucket samples belong to the summary or
		// histogram family with the base name, when declared.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				if f, ok := fams[base]; ok && (f.typ == "histogram" || f.typ == "summary") {
					return f
				}
			}
		}
		if f, ok := fams[name]; ok {
			return f
		}
		f := &promFamily{samples: make(map[string]float64)}
		fams[name] = f
		return f
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			family(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			family(name).typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		// Sample: name[{labels}] value
		key, valStr, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(valStr, " ") {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label block: %q", ln+1, line)
			}
			name = key[:i]
		}
		for _, c := range name {
			valid := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !valid {
				t.Fatalf("line %d: invalid metric name %q", ln+1, name)
			}
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		family(name).samples[key] = v
	}
	return fams
}

func TestPrometheusParseBack(t *testing.T) {
	r := &Registry{}
	r.GetCounter("demo.requests", "Requests served.").Add(42)
	r.GetGauge("demo.queue.depth", "Current queue depth.").Set(-3)
	r.GetHistogram("demo.phase", "Phase wall time.").Observe(1500 * time.Millisecond)
	h := r.GetHistogram("demo.latency", "End-to-end latency.")
	h.Observe(5 * time.Microsecond)  // bucket <10µs
	h.Observe(50 * time.Millisecond) // bucket <100ms
	h.Observe(20 * time.Second)      // overflow bucket
	r.GetCounter("demo.zero", "Never incremented.")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parsePrometheus(t, buf.String())

	reqs := fams["demo_requests"]
	if reqs == nil || reqs.typ != "counter" || reqs.samples["demo_requests"] != 42 {
		t.Fatalf("demo_requests family = %+v", reqs)
	}
	if reqs.help != "Requests served." {
		t.Errorf("help = %q", reqs.help)
	}
	if g := fams["demo_queue_depth"]; g == nil || g.typ != "gauge" || g.samples["demo_queue_depth"] != -3 {
		t.Fatalf("demo_queue_depth family = %+v", g)
	}
	if z := fams["demo_zero"]; z == nil || z.samples["demo_zero"] != 0 {
		t.Fatalf("zero-valued counter must still be exposed, got %+v", z)
	}

	ph := fams["demo_phase"]
	if ph == nil || ph.typ != "histogram" {
		t.Fatalf("demo_phase family = %+v", ph)
	}
	if got := ph.samples["demo_phase_sum"]; got != 1.5 {
		t.Errorf("histogram sum = %v, want 1.5 (seconds)", got)
	}
	if got := ph.samples["demo_phase_count"]; got != 1 {
		t.Errorf("histogram count = %v", got)
	}

	lat := fams["demo_latency"]
	if lat == nil || lat.typ != "histogram" {
		t.Fatalf("demo_latency family = %+v", lat)
	}
	if got := lat.samples["demo_latency_count"]; got != 3 {
		t.Errorf("histogram count = %v", got)
	}
	// Buckets are cumulative and the +Inf bucket equals the count.
	var prev float64
	var sawInf bool
	for _, le := range bucketLE() {
		key := "demo_latency_bucket{le=" + strconv.Quote(le) + "}"
		v, ok := lat.samples[key]
		if !ok {
			t.Fatalf("missing bucket %s in %v", key, lat.samples)
		}
		if v < prev {
			t.Errorf("bucket le=%s not cumulative: %v < %v", le, v, prev)
		}
		prev = v
		if le == "+Inf" {
			sawInf = true
			if v != 3 {
				t.Errorf("+Inf bucket = %v, want count 3", v)
			}
		}
	}
	if !sawInf {
		t.Error("no +Inf bucket")
	}
	if got := lat.samples["demo_latency_bucket{le=\"1e-05\"}"]; got != 1 {
		t.Errorf("le=1e-05 bucket = %v, want 1", got)
	}

	// Deterministic: same state, byte-identical output.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("exposition is not deterministic")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := &Registry{}
	r.GetCounter("handler.hits", "Hits.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
	fams := parsePrometheus(t, rec.Body.String())
	if f := fams["handler_hits"]; f == nil || f.samples["handler_hits"] != 1 {
		t.Fatalf("handler output missing handler_hits: %+v", f)
	}
}

func TestHelpRegistration(t *testing.T) {
	r := &Registry{}
	r.GetCounter("h.c", "first")
	r.GetCounter("h.c", "second") // first non-empty help wins
	if got := r.Help("h.c"); got != "first" {
		t.Errorf("Help = %q, want %q", got, "first")
	}
	r.GetGauge("h.g") // no help is fine
	if got := r.Help("h.g"); got != "" {
		t.Errorf("Help for undocumented gauge = %q", got)
	}
}

func TestColumns(t *testing.T) {
	r := &Registry{}
	r.GetCounter("c.a").Add(7)
	r.GetGauge("g.a").Set(-2)
	r.GetHistogram("h.a").Observe(5 * time.Millisecond) // bucket index 3 (<10ms)
	cols := r.Columns()
	want := map[string]Column{
		"c.a":       {Value: 7, Cumulative: true},
		"g.a":       {Value: -2},
		"h.a#count": {Value: 1, Cumulative: true},
		"h.a#ns":    {Value: int64(5 * time.Millisecond), Cumulative: true},
		"h.a#max":   {Value: int64(5 * time.Millisecond)},
		"h.a#b3":    {Value: 1, Cumulative: true},
	}
	for k, w := range want {
		if got, ok := cols[k]; !ok || got != w {
			t.Errorf("Columns[%q] = %+v (present %v), want %+v", k, got, ok, w)
		}
	}
	if len(cols) != len(want) {
		t.Errorf("Columns has %d entries, want %d: %v", len(cols), len(want), cols)
	}
}

func TestKinds(t *testing.T) {
	r := &Registry{}
	r.GetCounter("k.c")
	r.GetGauge("k.g")
	r.GetHistogram("k.h")
	kinds := r.Kinds()
	want := map[string]string{"k.c": "counter", "k.g": "gauge", "k.h": "histogram"}
	for n, k := range want {
		if kinds[n] != k {
			t.Errorf("Kinds[%q] = %q, want %q", n, kinds[n], k)
		}
	}
}
