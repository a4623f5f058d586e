package domain

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// populateState builds a domain with a mixed population: capacities,
// reports, multi-session users and a user on two APs.
func populateState(t *testing.T) *Domain {
	t.Helper()
	d := New(Config{})
	for i := 0; i < 6; i++ {
		if err := d.AddAP(trace.APID(fmt.Sprintf("ap-%d", i)), float64(10+i)*1e6); err != nil {
			t.Fatal(err)
		}
	}
	ps := []Placement{
		{User: "u-1", AP: "ap-0", DemandBps: 100},
		{User: "u-2", AP: "ap-0", DemandBps: 200},
		{User: "u-2", AP: "ap-3", DemandBps: 300}, // same user, second AP
		{User: "u-3", AP: "ap-5", DemandBps: 400},
	}
	if _, err := d.Commit(ps, nil); err != nil {
		t.Fatal(err)
	}
	// A second session for u-1 on ap-0 (multiplicity).
	if _, err := d.Commit([]Placement{{User: "u-1", AP: "ap-0", DemandBps: 50}}, nil); err != nil {
		t.Fatal(err)
	}
	d.SetReported("ap-1", 5e6)
	return d
}

// TestStateRoundtripAcrossShardCounts: export → import yields an equal
// export and equal policy-visible views.
func TestStateRoundtripAcrossShardCounts(t *testing.T) {
	src := populateState(t)
	dst := New(Config{})
	if err := dst.ImportState(src.ExportState(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src.ExportState(nil), dst.ExportState(nil)) {
		t.Fatalf("state diverged\nsrc %+v\ndst %+v", src.ExportState(nil), dst.ExportState(nil))
	}
	sv, _ := viewsOf(src, "u-1")
	dv, _ := viewsOf(dst, "u-1")
	if err := sameViews(dv, sv); err != nil {
		t.Fatalf("views diverged: %v", err)
	}
	if src.Size() != dst.Size() {
		t.Fatalf("size %d vs %d", src.Size(), dst.Size())
	}
}

func TestImportStateRejectsNonEmptyDomain(t *testing.T) {
	src := populateState(t)
	st := src.ExportState(nil)
	dst := New(Config{})
	if err := dst.AddAP("existing", 1e6); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportState(st); err == nil {
		t.Fatal("import into non-empty domain must fail")
	}
}

func TestImportStateRejectsDamage(t *testing.T) {
	cases := map[string]*State{
		"nil":        nil,
		"version":    {Version: 99},
		"misaligned": {Version: stateVersion, APs: []APState{{ID: "a", Users: []trace.UserID{"u"}, Demands: nil}}},
		"empty-user": {Version: stateVersion, APs: []APState{{ID: "a", Users: []trace.UserID{""}, Demands: []float64{1}}}},
	}
	for name, st := range cases {
		if err := New(Config{}).ImportState(st); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// TestImportStatePreservesLeaveSemantics: multiplicity must survive the
// round trip — u-1 had two sessions on ap-0, so one Leave(+Inf) removes the
// whole believed demand in both the original and the restored domain.
func TestImportStatePreservesLeaveSemantics(t *testing.T) {
	src := populateState(t)
	dst := New(Config{})
	if err := dst.ImportState(src.ExportState(nil)); err != nil {
		t.Fatal(err)
	}
	sok := src.Leave("u-1", "ap-0", math.Inf(1))
	dok := dst.Leave("u-1", "ap-0", math.Inf(1))
	if !sok || !dok {
		t.Fatalf("Leave(+Inf) found the user: src %v, dst %v; want both", sok, dok)
	}
	if !reflect.DeepEqual(src.ExportState(nil), dst.ExportState(nil)) {
		t.Fatal("post-leave state diverged")
	}
}
