package faults

import (
	"io"
	"math/rand"
	"sync"
)

// Sink is the write side a File decorates — the surface the journal
// requires of its segment files.
type Sink interface {
	io.Writer
	Sync() error
	Close() error
}

// FileConfig is a storage fault schedule: exactly the failures a
// write-ahead log must survive. The zero value injects nothing.
type FileConfig struct {
	// ShortWriteProb truncates a write to a random strict prefix,
	// returning the short count with ErrInjected (the io.Writer
	// contract for incomplete writes).
	ShortWriteProb float64
	// TornAtByte, when > 0, silently discards every byte past that
	// cumulative offset: writes report success but the tail never lands,
	// leaving a torn final record for recovery to cope with (a kill -9
	// racing the page cache).
	TornAtByte int64
	// BitFlipProb flips one random bit of a write's payload on its way
	// through — the frame lands with a CRC that cannot match.
	BitFlipProb float64
	// SyncErrProb fails a Sync call with ErrInjected.
	SyncErrProb float64
	// FailSyncAfter, when > 0, fails every Sync after the first
	// FailSyncAfter calls — a device that degrades mid-run.
	FailSyncAfter int
}

// File decorates a Sink with a fault schedule. Safe for concurrent use.
type File struct {
	sink Sink
	src  func() FileConfig

	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	syncs   int
}

// WrapFile decorates sink with the schedule src yields before every
// operation; seed seeds the decision stream.
func WrapFile(sink Sink, seed int64, src func() FileConfig) *File {
	return &File{sink: sink, src: src, rng: rand.New(rand.NewSource(seed))}
}

// Written returns the cumulative bytes accepted (including bytes
// silently discarded past TornAtByte, which the writer believes landed).
func (f *File) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(p) == 0 {
		return 0, nil
	}
	cfg := f.src()
	if cfg.ShortWriteProb > 0 && f.rng.Float64() < cfg.ShortWriteProb {
		n := f.rng.Intn(len(p)) // strict prefix, possibly empty
		if n > 0 {
			if err := f.writeThroughLocked(cfg, p[:n]); err != nil {
				return 0, err
			}
		}
		f.written += int64(n)
		return n, ErrInjected
	}
	buf := p
	if cfg.BitFlipProb > 0 && f.rng.Float64() < cfg.BitFlipProb {
		buf = append([]byte(nil), p...)
		bit := f.rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
	}
	if err := f.writeThroughLocked(cfg, buf); err != nil {
		return 0, err
	}
	f.written += int64(len(p))
	return len(p), nil
}

// writeThroughLocked forwards bytes to the sink, clipping everything at
// and past the torn-tail offset.
func (f *File) writeThroughLocked(cfg FileConfig, p []byte) error {
	if cfg.TornAtByte > 0 {
		remaining := cfg.TornAtByte - f.written
		if remaining <= 0 {
			return nil // silently gone
		}
		if int64(len(p)) > remaining {
			p = p[:remaining]
		}
	}
	_, err := f.sink.Write(p)
	return err
}

func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cfg := f.src()
	f.syncs++
	if cfg.FailSyncAfter > 0 && f.syncs > cfg.FailSyncAfter {
		return ErrInjected
	}
	if cfg.SyncErrProb > 0 && f.rng.Float64() < cfg.SyncErrProb {
		return ErrInjected
	}
	return f.sink.Sync()
}

func (f *File) Close() error { return f.sink.Close() }
