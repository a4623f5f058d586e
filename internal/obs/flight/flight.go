// Package flight is the FTDC-style flight recorder: a background
// sampler that delta-encodes periodic snapshots of the whole obs
// registry into a bounded on-disk ring, so the counter trajectories
// leading up to any incident — a crash in a chaos soak, a stall in a
// long -drive run — can be reconstructed after the fact (s3 diag
// decodes rings into per-metric time series).
//
// # On-disk format
//
// A ring is a directory of flight-<seq>.fr segment files. Every record
// is one magic|length|CRC-32C frame (the internal/journal framing, so
// torn tails and bit flips are tolerated exactly like WAL recovery)
// holding one JSON sample:
//
//	{"t": <unix ms>, "full": true, "v": {col: abs, ...}, "k": {col: "c"|"g"}}
//	{"t": <unix ms>, "v": {col: delta, ...}}
//
// The first record of every segment is a full snapshot — absolute
// values for every column plus each column's kind ("c" cumulative, "g"
// gauge-like) — making each segment self-contained. Subsequent records
// carry only the columns that changed, as signed deltas. Columns are
// the registry's flattened int64 series (obs.Columns): counters and
// gauges by name, histograms as name#count/name#ns/name#max/name#b<i>.
//
// Segments rotate at MaxBytes/4 and the oldest segments are deleted
// once the ring exceeds MaxBytes, so disk use is bounded no matter how
// long the process runs. Records are written straight to the file (no
// user-space buffering) and never fsynced: a kill -9 loses at most the
// record being written — which the CRC framing detects as a torn tail —
// while the page cache keeps the rest.
package flight

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
)

// Recorder health, exported through the registry it samples — so the
// flight recorder records its own vitals too.
var (
	obsSamples   = obs.GetCounter("flight.samples", "Flight-recorder samples written (full + delta records)")
	obsBytes     = obs.GetCounter("flight.sample_bytes", "Bytes appended to the flight ring, frame overhead included")
	obsRotations = obs.GetCounter("flight.rotations", "Flight ring segment rotations")
	obsErrors    = obs.GetCounter("flight.errors", "Flight-recorder write/rotate errors (recording continues)")
)

// DefaultMaxBytes bounds a ring's disk use when Options.MaxBytes is 0.
const DefaultMaxBytes = 8 << 20

// minSegmentBytes is the floor for the per-segment rotation threshold,
// so tiny MaxBytes settings still produce usable segments.
const minSegmentBytes = 64 << 10

// Options configures a Recorder. Dir is required; everything else
// defaults sensibly.
type Options struct {
	// Dir is the ring directory (created if absent).
	Dir string
	// Every is the sampling period (default 1s).
	Every time.Duration
	// MaxBytes bounds the ring's total size on disk (default
	// DefaultMaxBytes). Rotation threshold is MaxBytes/4, floored at
	// 64KiB.
	MaxBytes int64
	// Registry is the sampled registry (default obs.Default).
	Registry *obs.Registry
	// Logger receives write/rotate errors (default: discard).
	Logger *log.Logger

	// now substitutes the clock in tests.
	now func() time.Time
	// segBytes overrides the rotation threshold in tests.
	segBytes int64
}

// record is the JSON payload of one frame.
type record struct {
	T    int64             `json:"t"`              // sample time, unix milliseconds
	Full bool              `json:"full,omitempty"` // V holds absolute values for all columns
	V    map[string]int64  `json:"v"`              // full: absolutes; delta: changed columns only
	K    map[string]string `json:"k,omitempty"`    // full only: column kinds, "c"|"g"
}

// Recorder samples a registry into a ring. Start it with Start, stop it
// with Stop; a kill -9 instead of Stop leaves a decodable ring.
type Recorder struct {
	opts    Options
	segSize int64

	mu      sync.Mutex
	f       *os.File
	seq     uint64
	written int64            // bytes in the current segment
	last    map[string]int64 // previous sample's absolute values
	closed  bool

	stop chan struct{}
	done chan struct{}
}

// Start opens (or extends) the ring in opts.Dir, writes an initial full
// snapshot and begins sampling every opts.Every.
func Start(opts Options) (*Recorder, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("flight: Dir is required")
	}
	if opts.Every <= 0 {
		opts.Every = time.Second
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	if opts.Logger == nil {
		opts.Logger = log.New(os.Stderr, "", 0)
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: mkdir %s: %w", opts.Dir, err)
	}
	r := &Recorder{
		opts:    opts,
		segSize: opts.MaxBytes / 4,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if r.segSize < minSegmentBytes {
		r.segSize = minSegmentBytes
	}
	if opts.segBytes > 0 {
		r.segSize = opts.segBytes
	}
	// A restart continues the sequence after the surviving segments, so
	// one ring accumulates the history across process lifetimes.
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	if n := len(segs); n > 0 {
		r.seq = segs[n-1].seq
	}
	r.mu.Lock()
	err = r.rotateLocked() // opens flight-<seq+1> and writes the full snapshot
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	go r.loop()
	return r, nil
}

// Stop takes a final sample, closes the current segment and stops the
// sampler. Safe to call once.
func (r *Recorder) Stop() error {
	close(r.stop)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampleLocked()
	r.closed = true
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Sample records one sample immediately, outside the periodic schedule
// (tests, and a final data point on orderly shutdown paths).
func (r *Recorder) Sample() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampleLocked()
}

func (r *Recorder) loop() {
	defer close(r.done)
	tick := time.NewTicker(r.opts.Every)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.mu.Lock()
			r.sampleLocked()
			r.mu.Unlock()
		}
	}
}

// sampleLocked writes one record: a delta against the previous sample,
// or a full snapshot right after a rotation.
func (r *Recorder) sampleLocked() {
	if r.f == nil || r.closed {
		return
	}
	if r.written >= r.segSize {
		if err := r.rotateLocked(); err != nil {
			obsErrors.Inc()
			r.opts.Logger.Printf("flight: rotate: %v", err)
			return
		}
		return // rotateLocked wrote this tick's full snapshot
	}
	cols := r.opts.Registry.Columns()
	rec := record{T: r.opts.now().UnixMilli(), V: make(map[string]int64)}
	for name, col := range cols {
		if d := col.Value - r.last[name]; d != 0 {
			rec.V[name] = d
		}
		r.last[name] = col.Value
	}
	// Columns can disappear only on registry Reset; record the drop so
	// decoded series return to zero rather than flat-lining.
	for name := range r.last {
		if _, ok := cols[name]; !ok {
			rec.V[name] = -r.last[name]
			delete(r.last, name)
		}
	}
	r.writeLocked(rec)
}

// rotateLocked seals the current segment, prunes the ring to MaxBytes
// and opens the next segment with a full snapshot as its first record.
func (r *Recorder) rotateLocked() error {
	if r.f != nil {
		if err := r.f.Close(); err != nil {
			r.opts.Logger.Printf("flight: close segment: %v", err)
		}
		r.f = nil
		obsRotations.Inc()
		r.pruneLocked()
	}
	r.seq++
	f, err := os.Create(segmentPath(r.opts.Dir, r.seq))
	if err != nil {
		return err
	}
	r.f = f
	r.written = 0
	// Full snapshot: absolute values and kinds for every column.
	cols := r.opts.Registry.Columns()
	rec := record{
		T:    r.opts.now().UnixMilli(),
		Full: true,
		V:    make(map[string]int64, len(cols)),
		K:    make(map[string]string, len(cols)),
	}
	r.last = make(map[string]int64, len(cols))
	for name, col := range cols {
		rec.V[name] = col.Value
		if col.Cumulative {
			rec.K[name] = "c"
		} else {
			rec.K[name] = "g"
		}
		r.last[name] = col.Value
	}
	r.writeLocked(rec)
	return nil
}

// writeLocked frames and appends one record; errors are counted and
// logged, never fatal — the recorder is diagnosis, not correctness.
func (r *Recorder) writeLocked(rec record) {
	payload, err := json.Marshal(rec)
	if err != nil {
		obsErrors.Inc()
		r.opts.Logger.Printf("flight: encode: %v", err)
		return
	}
	frame := journal.AppendFrame(nil, payload)
	n, err := r.f.Write(frame)
	r.written += int64(n)
	if err != nil {
		obsErrors.Inc()
		r.opts.Logger.Printf("flight: write: %v", err)
		return
	}
	obsSamples.Inc()
	obsBytes.Add(int64(len(frame)))
}

// pruneLocked deletes the oldest closed segments until the ring fits
// MaxBytes. Best-effort.
func (r *Recorder) pruneLocked() {
	segs, err := listSegments(r.opts.Dir)
	if err != nil {
		r.opts.Logger.Printf("flight: prune: %v", err)
		return
	}
	var total int64
	for _, s := range segs {
		total += s.size
	}
	for _, s := range segs {
		if total <= r.opts.MaxBytes || len(segs) == 1 {
			break
		}
		if err := os.Remove(filepath.Join(r.opts.Dir, s.name)); err != nil {
			r.opts.Logger.Printf("flight: prune %s: %v", s.name, err)
			break
		}
		total -= s.size
		segs = segs[1:]
	}
}

// segment is one parsed ring file.
type segment struct {
	name string
	seq  uint64
	size int64
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("flight-%010d.fr", seq))
}

// listSegments returns the ring's segments sorted by ascending
// sequence. Unrelated files are ignored.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("flight: read dir %s: %w", dir, err)
	}
	var segs []segment
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "flight-") || !strings.HasSuffix(name, ".fr") {
			continue
		}
		seq, perr := strconv.ParseUint(name[7:len(name)-3], 10, 64)
		if perr != nil {
			continue
		}
		info, ierr := ent.Info()
		if ierr != nil {
			continue
		}
		segs = append(segs, segment{name: name, seq: seq, size: info.Size()})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].seq < segs[k].seq })
	return segs, nil
}

// Sample is one decoded ring record with absolute column values.
type Sample struct {
	// T is the sample time.
	T time.Time
	// Full marks samples decoded from a full-snapshot record (segment
	// starts and process restarts); cumulative columns may legitimately
	// reset to a lower value here.
	Full bool
	// V holds the absolute value of every column known at this sample.
	V map[string]int64
}

// DecodeStats summarizes ring damage found while decoding.
type DecodeStats struct {
	Segments      int
	Records       int
	CorruptFrames int
	TornTails     int
}

// Ring is a fully decoded flight ring.
type Ring struct {
	Samples []Sample
	// Kinds maps columns to "c" (cumulative) or "g" (gauge-like), as
	// recorded in the full snapshots.
	Kinds map[string]string
	Stats DecodeStats
}

// Decode reads every segment of the ring in dir and reconstructs the
// absolute per-column time series. Torn tails and corrupt frames are
// counted and skipped, mirroring journal recovery.
func Decode(dir string) (*Ring, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	ring := &Ring{Kinds: make(map[string]string)}
	running := make(map[string]int64)
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			ring.Stats.CorruptFrames++
			continue
		}
		ring.Stats.Segments++
		st, _ := journal.WalkFrames(data, func(_ int, payload []byte) error {
			var rec record
			if err := json.Unmarshal(payload, &rec); err != nil {
				ring.Stats.CorruptFrames++
				return nil
			}
			if rec.Full {
				running = make(map[string]int64, len(rec.V))
				for name, v := range rec.V {
					running[name] = v
				}
				for name, k := range rec.K {
					ring.Kinds[name] = k
				}
			} else {
				for name, d := range rec.V {
					if v := running[name] + d; v == 0 {
						delete(running, name)
					} else {
						running[name] = v
					}
				}
			}
			s := Sample{
				T:    time.UnixMilli(rec.T),
				Full: rec.Full,
				V:    make(map[string]int64, len(running)),
			}
			for name, v := range running {
				s.V[name] = v
			}
			ring.Samples = append(ring.Samples, s)
			ring.Stats.Records++
			return nil
		})
		ring.Stats.CorruptFrames += st.Corrupt
		if st.Torn {
			ring.Stats.TornTails++
		}
	}
	return ring, nil
}

// Columns returns the sorted union of column names across the ring.
func (r *Ring) Columns() []string {
	set := make(map[string]struct{})
	for _, s := range r.Samples {
		for name := range s.V {
			set[name] = struct{}{}
		}
	}
	cols := make([]string, 0, len(set))
	for name := range set {
		cols = append(cols, name)
	}
	sort.Strings(cols)
	return cols
}
