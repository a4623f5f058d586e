package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONLines hardens the trace parser against corrupt input: it
// must never panic, and everything it accepts must be valid and
// re-serialize.
func FuzzReadJSONLines(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteJSONLines(&seed, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("{\"kind\":\"session\"}\n")
	f.Add("{\"kind\":\"topology\",\"topology\":{\"aps\":[]}}\n")
	f.Add("not json at all\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadJSONLines(strings.NewReader(input))
		if err != nil {
			return // rejected: fine
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSONLines(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		if _, err := ReadJSONLines(&buf); err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
	})
}
