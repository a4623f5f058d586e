package journal

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// jsonFrame frames r as the JSON object an earlier release stored:
// CRC-valid frames DecodeRecord refuses, fuzzed alongside the current
// layout.
func jsonFrame(tb testing.TB, r Record) []byte {
	tb.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	return AppendFrame(nil, b)
}

// recordFrame frames r in the layout this release writes.
func recordFrame(tb testing.TB, r Record) []byte {
	tb.Helper()
	b, err := AppendRecord(BeginFrame(nil), &r)
	if err != nil {
		tb.Fatal(err)
	}
	SealFrame(b)
	return b
}

// FuzzFrameDecode throws arbitrary bytes at the frame walker. The
// contract under fuzz: never panic, never hand out more than the input
// holds, keep the walk's own account consistent, and a clean re-encode
// of the payloads walks back unchanged.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, []byte(`{"seq":1,"op":"register","ap":"ap-0"}`)))
	f.Add(AppendFrame(nil, []byte(`{}`)))
	two := AppendFrame(AppendFrame(nil, []byte(`{"seq":1,"op":"assoc"}`)), []byte(`{"seq":2,"op":"disassoc"}`))
	f.Add(two)
	f.Add(two[:len(two)-3])                                    // torn tail
	f.Add(AppendFrame([]byte("garbage"), []byte(`{"seq":9}`))) // resync
	dmg := append([]byte(nil), two...)
	dmg[15] ^= 0x40 // corrupt first payload
	f.Add(dmg)
	pair := append(recordFrame(f, Record{Seq: 1, Op: OpRegister, AP: "ap-0", CapacityBps: 1e7}),
		recordFrame(f, Record{Seq: 2, Op: OpAssoc, Placements: []Placement{{User: "u-1", AP: "ap-0"}}})...)
	f.Add(pair)
	f.Add(pair[:len(pair)-2])
	f.Add(append(append([]byte(nil), pair...), "trailing noise"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, st := walkAll(data)
		if st.Resyncs < 0 || st.Resyncs > st.Corrupt || st.Unsettled < 0 || st.Unsettled > st.Resyncs {
			t.Fatalf("inconsistent damage account %+v", st)
		}
		if st.LastFrame < 0 || st.LastFrame > st.Consumed || st.Consumed > len(data) {
			t.Fatalf("walk position out of range for %d bytes: %+v", len(data), st)
		}
		total, prevEnd := 0, 0
		for _, fr := range frames {
			if len(fr.payload) > MaxRecordBytes {
				t.Fatalf("payload of %d bytes exceeds MaxRecordBytes", len(fr.payload))
			}
			if fr.off < prevEnd || fr.end() > st.Consumed {
				t.Fatalf("frame [%d,%d) overlaps its predecessor (ends %d) or the consumed mark %d", fr.off, fr.end(), prevEnd, st.Consumed)
			}
			prevEnd = fr.end()
			total += len(fr.payload) + FrameHeaderLen
		}
		if total > len(data) {
			t.Fatalf("decoded %d framed bytes from %d input bytes", total, len(data))
		}

		// Round-trip: re-encoding the recovered payloads must walk back
		// exactly, cleanly.
		var buf []byte
		for _, fr := range frames {
			buf = AppendFrame(buf, fr.payload)
		}
		again := cleanFrames(t, buf, len(frames))
		for i := range again {
			if !bytes.Equal(again[i].payload, frames[i].payload) {
				t.Fatalf("payload %d changed across re-encode", i)
			}
		}
	})
}

// tailed is what a follower-shaped consumer of replaySegment ends up
// with: the unfenced records in delivery order and the damage account of
// the region it may move its cursor over.
type tailed struct {
	recs                         []Record
	fenced, corrupt, undecodable int
}

// tail replays data the way Follower.Poll does, continuing from *last.
func (got *tailed) tail(data []byte, last *uint64, minEpoch uint64) FrameStats {
	var scratch Record
	res, undecodable, _ := replaySegment(data, last, &scratch, func(r *Record) error {
		if r.Epoch < minEpoch {
			got.fenced++
			return nil
		}
		got.recs = append(got.recs, *r)
		r.Placements = nil
		*last = r.Seq
		return nil
	})
	got.corrupt += res.Corrupt - res.Unsettled
	got.undecodable += undecodable
	return res
}

// FuzzReplicationDecode throws arbitrary segment images at the replay
// loop follow-mode readers run on every Poll. Contract under fuzz: never
// panic; delivered records have strictly increasing sequence numbers,
// all above the `after` position and none below the epoch fence; and —
// the property the byte cursor rests on — reading a prefix of the image
// first and resuming at the offset that walk consumed delivers exactly
// what one walk of the whole image delivers, with the same damage
// account.
func FuzzReplicationDecode(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint16(0))
	clean := append(jsonFrame(f, Record{Seq: 1, Op: OpRegister, AP: "ap-0"}),
		jsonFrame(f, Record{Seq: 2, Op: OpAssoc, Epoch: 1})...)
	f.Add(clean, uint64(0), uint64(0), uint16(len(clean)/2))
	f.Add(clean, uint64(1), uint64(2), uint16(3))                // partially consumed, fenced
	f.Add(clean[:len(clean)-5], uint64(0), uint64(0), uint16(9)) // torn tail
	dup := append(append([]byte(nil), clean...), jsonFrame(f, Record{Seq: 2, Op: OpAssoc, Epoch: 2})...)
	f.Add(dup, uint64(0), uint64(0), uint16(len(clean))) // duplicate seq from retried epoch
	f.Add(append([]byte("noise"), clean...), uint64(0), uint64(0), uint16(2))
	f.Add(AppendFrame(nil, []byte("not json")), uint64(0), uint64(0), uint16(0))
	mixed := append(jsonFrame(f, Record{Seq: 1, Op: OpRegister, AP: "ap-0"}),
		recordFrame(f, Record{Seq: 2, Epoch: 1, Op: OpAssoc, TS: -5, Placements: []Placement{{User: "u", AP: "ap-0", Prev: "ap-1", DemandBps: 1}}})...)
	mixed = append(mixed, recordFrame(f, Record{Seq: 3, Epoch: 1, Op: OpDisassoc, User: "u", AP: "ap-0"})...)
	f.Add(mixed, uint64(0), uint64(0), uint16(len(mixed)-4))
	f.Add(append(append([]byte(nil), mixed...), "lost framing"...), uint64(1), uint64(1), uint16(len(mixed)+3))
	f.Add(AppendFrame(nil, []byte{recordVersion + 1, 1, 0, 1}), uint64(0), uint64(0), uint16(0)) // a newer writer's version byte

	f.Fuzz(func(t *testing.T, data []byte, after, minEpoch uint64, cut uint16) {
		var whole tailed
		last := after
		whole.tail(data, &last, minEpoch)
		prev := after
		for i, r := range whole.recs {
			if r.Seq <= prev || r.Epoch < minEpoch {
				t.Fatalf("record %d: seq %d epoch %d delivered at position %d, fence %d", i, r.Seq, r.Epoch, prev, minEpoch)
			}
			prev = r.Seq
		}

		var split tailed
		last = after
		st := split.tail(data[:min(int(cut), len(data))], &last, minEpoch)
		split.tail(data[st.Consumed:], &last, minEpoch)
		if !same(split, whole) {
			t.Fatalf("resuming at offset %d of a %d-byte prefix: %+v, one walk: %+v", st.Consumed, cut, split, whole)
		}

		// Round-trip: what was delivered, re-encoded as a clean segment,
		// is delivered again — compared in stored form, the one in which
		// a NaN equals itself and -0 is the zero the encoder drops.
		buf := segmentOf(t, whole.recs)
		var again tailed
		last = after
		if st := again.tail(buf, &last, minEpoch); st.Corrupt != 0 || st.Torn || st.Consumed != len(buf) {
			t.Fatalf("re-encoded segment damaged: %+v", st)
		}
		if rebuf := segmentOf(t, again.recs); again.undecodable != 0 || again.fenced != 0 || !bytes.Equal(rebuf, buf) {
			t.Fatalf("re-encoded segment yields %+v, want the records of %+v", again, whole)
		}
	})
}

// segmentOf frames recs as a clean segment in this release's layout;
// every record DecodeRecord returns can be stored again.
func segmentOf(t *testing.T, recs []Record) []byte {
	var buf []byte
	for i := range recs {
		frame, err := AppendRecord(BeginFrame(buf), &recs[i])
		if err != nil {
			t.Fatalf("a decoded record does not re-encode: %v (%+v)", err, recs[i])
		}
		SealFrame(frame[len(buf):])
		buf = frame
	}
	return buf
}

// same compares two decodings of the same bytes by their printed form,
// under which a NaN equals itself and an empty placement list equals
// none.
func same(a, b any) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

// roundTripRecords covers every op this release writes, with and
// without placements, empty strings, zero floats, extreme Seq/Epoch and
// a negative TS.
var roundTripRecords = []Record{
	{Seq: 1, Op: OpRegister, TS: 1_700_000_000_000_000_000, AP: "ap-0", CapacityBps: 54e6, Static: true},
	{Seq: 2, Op: OpRegister},
	{Seq: 3, Epoch: 7, Op: OpAssoc, TS: 1, Placements: []Placement{{User: "u-1", AP: "ap-0", DemandBps: 50e3}}},
	{Seq: 4, Op: OpAssoc, Placements: []Placement{{User: "u-1", AP: "ap-1", Prev: "ap-0"}, {}, {User: "", AP: "ap-2", DemandBps: math.SmallestNonzeroFloat64}}},
	{Seq: 5, Op: OpDisassoc, TS: -1, User: "u-1", AP: "ap-1"},
	{Seq: 6, Op: OpDisassoc, TS: math.MinInt64, User: "u-2", AP: "ap-0"},
	{Seq: math.MaxUint64, Epoch: math.MaxUint64, Op: OpDisassoc, TS: math.MaxInt64, AP: "ap-0"},
	{Op: OpDisassoc},
}

// TestRecordRoundTrip: DecodeRecord(AppendRecord(r)) == r, into a clean
// Record and into one still holding another record's fields.
func TestRecordRoundTrip(t *testing.T) {
	dirty := Record{Seq: 99, Epoch: 9, Op: OpDisassoc, TS: 9, AP: "x", User: "y", CapacityBps: 9, Static: true,
		Placements: []Placement{{User: "a", AP: "b", Prev: "c", DemandBps: 9}, {User: "d"}}}
	for _, want := range roundTripRecords {
		payload, err := AppendRecord(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] == '{' {
			t.Fatalf("record %d: stored form starts with the byte that marks a JSON record", want.Seq)
		}
		var got Record
		for _, into := range []*Record{&got, &dirty} {
			if err := DecodeRecord(payload, into); err != nil {
				t.Fatalf("record %d: %v", want.Seq, err)
			}
			if len(into.Placements) == 0 {
				into.Placements = nil
			}
			if !reflect.DeepEqual(*into, want) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", *into, want)
			}
		}
	}
	for _, op := range []Op{"reboot", "leave", ""} {
		if _, err := AppendRecord(nil, &Record{Op: op}); err == nil {
			t.Fatalf("op %q, outside the Op* constants, was encoded", op)
		}
	}
}

// TestDecodeRecordReusesRepeatedStrings is the reuse rule's property
// test for records: a seeded stream whose users and APs now repeat and
// now change, decoded into one reused Record (as recovery and followers
// decode), equals each record decoded into a fresh one, and a field that
// repeats the reused Record's — the record-level AP and User (or, where
// those were empty, the first placement's), and each placement's against
// the same slot — is that string itself.
func TestDecodeRecordReusesRepeatedStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	var reused Record
	shared := 0
	for i := 0; i < 2000; i++ {
		want := Record{Seq: uint64(i + 1), Op: wireOps[pick("1", "2", "2", "3", "5")[0]-'0'],
			AP: trace.APID(pick("", "ap-1", "ap-2")), User: trace.UserID(pick("", "u-1", "u-1", "u-2"))}
		for n := rng.Intn(4); n > 0; n-- {
			want.Placements = append(want.Placements, Placement{User: trace.UserID(pick("u-1", "u-2", "u-3")),
				AP: trace.APID(pick("ap-1", "ap-2")), Prev: trace.APID(pick("", "ap-1", "ap-2")), DemandBps: 1})
		}
		payload, err := AppendRecord(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		before := reused
		before.Placements = append([]Placement(nil), reused.Placements[:cap(reused.Placements)]...)
		var fresh Record
		if err := DecodeRecord(payload, &fresh); err != nil {
			t.Fatal(err)
		}
		if err := DecodeRecord(payload, &reused); err != nil {
			t.Fatal(err)
		}
		got := reused
		if len(got.Placements) == 0 {
			got.Placements = nil // an emptied reused slice, where a fresh Record has none
		}
		if !reflect.DeepEqual(fresh, got) || fresh.Seq != want.Seq || len(fresh.Placements) != len(want.Placements) {
			t.Fatalf("record %d: reused decode %+v, fresh %+v", i, reused, fresh)
		}
		same := func(got, was string) {
			if got == was && got != "" {
				if unsafe.StringData(got) != unsafe.StringData(was) {
					t.Fatalf("record %d: repeated %q decoded as a copy", i, got)
				}
				shared++
			}
		}
		var first Placement // where the reused Record has no AP or User, its first slot's stand in
		if len(before.Placements) > 0 {
			first = before.Placements[0]
		}
		same(string(reused.AP), string(cmp.Or(before.AP, first.AP)))
		same(string(reused.User), string(cmp.Or(before.User, first.User)))
		for k, p := range reused.Placements {
			if k < len(before.Placements) {
				was := before.Placements[k]
				same(string(p.User), string(was.User))
				same(string(p.AP), string(was.AP))
				same(string(p.Prev), string(was.Prev))
			}
		}
	}
	if shared == 0 {
		t.Fatal("the stream never repeated a field")
	}
}

// TestDecodeRecordRejects: the hostile-input checks, each on a payload
// one edit away from a valid one.
func TestDecodeRecordRejects(t *testing.T) {
	good, err := AppendRecord(nil, &Record{Seq: 3, Op: OpAssoc, Placements: []Placement{{User: "u", AP: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	edit := func(i int, b byte) []byte {
		p := append([]byte(nil), good...)
		p[i] = b
		return p
	}
	for name, payload := range map[string][]byte{
		"empty":            {},
		"header only":      good[:2],
		"newer version":    edit(0, recordVersion+1),
		"op zero":          edit(1, 0),
		"op four":          edit(1, 4),
		"op beyond":        edit(1, byte(len(wireOps))),
		"truncated":        good[:len(good)-1],
		"trailing byte":    append(append([]byte(nil), good...), 0),
		"unknown flag":     edit(2, 0x80),
		"flag bit 1":       edit(2, 0x02),
		"forged count":     edit(8, 0x7F),
		"not JSON after {": []byte("{nope"),
	} {
		var r Record
		if err := DecodeRecord(payload, &r); err == nil {
			t.Errorf("%s: decoded %x as %+v", name, payload, r)
		}
	}
	var r Record
	if err := DecodeRecord(good, &r); err != nil {
		t.Fatalf("control: %v", err)
	}
}

// FuzzRecordDecode throws arbitrary payloads at the record decoder:
// never a panic, never more decoded than the input could spell out, and
// whatever decodes re-encodes to a payload that decodes to the same
// record.
func FuzzRecordDecode(f *testing.F) {
	for _, r := range roundTripRecords {
		payload, err := AppendRecord(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte(`{"seq":2,"op":"assoc","placements":[{"user":"u-1","ap":"ap-0"}]}`))
	f.Add([]byte{recordVersion, 2, 0, 1, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // forged placement count

	f.Fuzz(func(t *testing.T, payload []byte) {
		var r Record
		if DecodeRecord(payload, &r) != nil {
			return
		}
		spelled := len(r.AP) + len(r.User) + minPlacementBytes*len(r.Placements)
		for _, p := range r.Placements {
			spelled += len(p.User) + len(p.AP) + len(p.Prev)
		}
		if spelled > len(payload) {
			t.Fatalf("decoded %d bytes of strings and placements from a %d-byte payload", spelled, len(payload))
		}
		re, err := AppendRecord(nil, &r)
		if err != nil {
			t.Fatalf("a decoded record does not re-encode: %v (%+v)", err, r)
		}
		var back Record
		if err := DecodeRecord(re, &back); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		// Compared in stored form: a NaN equals itself there, and -0 is
		// the zero the encoder drops. TestRecordRoundTrip holds the
		// field-by-field equality.
		if again, _ := AppendRecord(nil, &back); !bytes.Equal(again, re) {
			t.Fatalf("re-encode changed the record:\n got %+v\nwant %+v", back, r)
		}
	})
}
