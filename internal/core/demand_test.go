package core

import (
	"math"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

func TestNewDemandEstimator(t *testing.T) {
	history := []trace.Session{
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 100, Bytes: 1000},  // 10 B/s
		{User: "u1", AP: "a", ConnectAt: 0, DisconnectAt: 100, Bytes: 3000},  // 30 B/s
		{User: "u2", AP: "a", ConnectAt: 0, DisconnectAt: 100, Bytes: 10000}, // 100 B/s
		{User: "u3", AP: "a", ConnectAt: 50, DisconnectAt: 50, Bytes: 999},   // skipped
	}
	d, err := NewDemandEstimator(history)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Demand("u1"); math.Abs(got-20) > 1e-9 {
		t.Errorf("Demand(u1) = %v, want 20", got)
	}
	if got := d.Demand("u2"); math.Abs(got-100) > 1e-9 {
		t.Errorf("Demand(u2) = %v, want 100", got)
	}
	// Unknown user gets the population mean (10+30+100)/3.
	want := (10.0 + 30.0 + 100.0) / 3.0
	if got := d.Demand("ghost"); math.Abs(got-want) > 1e-9 {
		t.Errorf("Demand(ghost) = %v, want %v", got, want)
	}
	// So does a user whose only history is a zero-length session.
	if got := d.Demand("u3"); math.Abs(got-want) > 1e-9 {
		t.Errorf("Demand(u3) = %v, want the population mean %v", got, want)
	}
}

func TestNewDemandEstimatorEmpty(t *testing.T) {
	if _, err := NewDemandEstimator(nil); err == nil {
		t.Error("empty history should error")
	}
	onlyZero := []trace.Session{
		{User: "u", AP: "a", ConnectAt: 5, DisconnectAt: 5, Bytes: 10},
	}
	if _, err := NewDemandEstimator(onlyZero); err == nil {
		t.Error("zero-duration-only history should error")
	}
}
