package protocol

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// eventLog is an observer that keeps every lifecycle event, in order.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) Connect(u trace.UserID, ap trace.APID, ts int64) {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf("connect %s %s @%d", u, ap, ts))
	l.mu.Unlock()
}

func (l *eventLog) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf("disconnect %s %s @%d", u, ap, ts))
	l.mu.Unlock()
	return nil
}

// routeTable is a policy that places each user where the table says, so
// a script decides every move and refresh itself.
type routeTable map[trace.UserID]trace.APID

func (routeTable) Name() string { return "table" }

func (r routeTable) Select(req wlan.Request, _ []wlan.APView) (trace.APID, error) {
	return r[req.User], nil
}

// TestObserverOrderJournalIndependent runs one scripted lifecycle —
// associate, move, same-AP refresh, disassociate — through an
// unjournaled and a journaled controller: the observer hears the same
// events in the same order from both, because observers hear every event
// in commit order whether or not a journal is attached.
func TestObserverOrderJournalIndependent(t *testing.T) {
	run := func(opts ...ControllerOption) []string {
		t.Helper()
		var (
			clock  atomic.Int64
			events eventLog
		)
		route := routeTable{}
		clock.Store(100)
		c, err := NewController(route, append(opts, WithClock(clock.Load), WithObserver(&events))...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, ap := range []trace.APID{"ap-a", "ap-b"} {
			if err := c.RegisterAP(ap, 1e6); err != nil {
				t.Fatal(err)
			}
		}
		step := func(ts int64, f func() error) {
			t.Helper()
			clock.Store(ts)
			if err := f(); err != nil {
				t.Fatalf("@%d: %v", ts, err)
			}
		}
		assoc := func(u trace.UserID, ap trace.APID, demand float64) func() error {
			return func() error {
				route[u] = ap
				_, err := c.Associate(u, demand)
				return err
			}
		}
		step(100, assoc("u1", "ap-a", 100))
		step(101, assoc("u1", "ap-b", 100)) // move
		step(102, assoc("u1", "ap-b", 200)) // same-AP refresh: no events
		step(103, assoc("u3", "ap-a", 100))
		step(103, assoc("u1", "ap-a", 100)) // move back
		step(104, func() error { c.disassociate("u3", nil); return nil })
		step(200, assoc("u4", "ap-b", 100))
		return events.events
	}

	want := []string{
		"connect u1 ap-a @100",
		"disconnect u1 ap-a @101",
		"connect u1 ap-b @101",
		"connect u3 ap-a @103",
		"disconnect u1 ap-b @103",
		"connect u1 ap-a @103",
		"disconnect u3 ap-a @104",
		"connect u4 ap-b @200",
	}
	plain := run()
	journaled := run(WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncOff}))
	if !reflect.DeepEqual(plain, want) {
		t.Errorf("unjournaled observer heard:\n%s\nwant:\n%s", strings.Join(plain, "\n"), strings.Join(want, "\n"))
	}
	if !reflect.DeepEqual(journaled, plain) {
		t.Errorf("journaled observer heard:\n%s\nunjournaled:\n%s", strings.Join(journaled, "\n"), strings.Join(plain, "\n"))
	}
}
