package society

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// FuzzReadModel hardens model deserialization: no panics, accepted models
// must be usable (no accessor panics), and what WriteModel makes of one
// reads back as an equal model — or is refused, for a user id with '|'.
func FuzzReadModel(f *testing.F) {
	f.Add(`{"version":1,"alpha":0.3,"pair_prob":{"a|b":0.8}}`)
	f.Add(`{"version":1}`)
	f.Add(`{"version":99}`)
	f.Add(`garbage`)
	f.Add(`{"version":1,"pair_prob":{"u1|u2":0.9,"u2|u1":0.1},"encounters":{"u1|u2":3}}`)
	f.Add(`{"version":1,"encounters":{"a|b|c":2},"types":{"x|y":0}}`)
	f.Add(`{"version":1,"alpha":1,"pair_prob":{"a|b":0.5},"types":{"a":0,"b":1,"c":-1,"d":7},"type_matrix":[[1],[1,2,3]]}`)
	f.Add(`{"version":1,"pair_prob":{"a|b":0.5},"encounters":{"a|b":0,"b|c":1},"co_leaves":{"c|d":2,"d|e":0}}`)
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadModel(strings.NewReader(input))
		if err != nil {
			return
		}
		_ = m.K()
		_ = m.TopPairs(3)
		piped := false
		for _, u := range []trace.UserID{"a", "b", "c", "d"} {
			for _, v := range []trace.UserID{"a", "b", "c", "d"} {
				_ = m.Index(u, v)
			}
		}
		m.EachPair(func(p PairStat) {
			_, _ = m.Prob(p.A, p.B)
			_, _ = m.Counts(p.B, p.A)
			piped = piped || strings.Contains(string(p.A)+string(p.B), "|")
		})
		for u := range m.Types {
			piped = piped || strings.Contains(string(u), "|")
		}
		_, _, _, _ = m.CloseFriendRows(0.3)

		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			if !piped {
				t.Fatalf("WriteModel refused a model without a '|' in any id: %v", err)
			}
			return
		}
		again, err := ReadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadModel of WriteModel's output: %v\n%s", err, buf.Bytes())
		}
		if len(m.Centroids) == 0 { // omitted from the document when empty
			m.Centroids = nil
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("model changed across save and load:\nfirst  %+v\nsecond %+v", m, again)
		}
	})
}
