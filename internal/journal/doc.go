// Package journal is the controller's durability layer: an append-only,
// length-prefixed, CRC32C-framed write-ahead log of association-domain
// mutations, plus periodic checkpoints, a recovery path that survives
// torn tails and corrupt frames, and a follow-mode reader that tails a
// live journal as a replication stream.
//
// # Frame format
//
// Every record is one frame:
//
//	magic   uint32 LE  (0xAA57_33F5)
//	length  uint32 LE  (payload bytes, ≤ MaxRecordBytes)
//	crc     uint32 LE  (CRC-32C / Castagnoli, of the payload)
//	payload []byte     (one Record, see below)
//
// A crash can truncate the final frame at any byte offset; recovery
// treats an incomplete trailing frame as a torn tail and stops there. A
// bit flip inside an earlier frame fails its CRC; recovery skips the
// frame (re-synchronizing on the magic marker when the length field
// itself was hit) and keeps going, counting the damage instead of
// failing the restart. The CRC is verified before a payload is decoded.
//
// The framing (AppendFrame; BeginFrame and SealFrame around a payload
// encoded in place; WalkFrames) and the field primitives the payload
// layouts are made of (AppendString, AppendFloat, varints, and the
// Reader that decodes them with one error check at the end) are exported
// so that there is one set: the flight recorder (internal/obs/flight)
// frames its snapshots this way, the protocol's binary wire codec and
// the controller's checkpoint document are built from the same
// primitives.
//
// # Record layout
//
// A record is a version byte, op, flags, Seq, Epoch, TS, AP, User, the
// flagged CapacityBps and the placements, in those primitives
// (docs/ARCHITECTURE.md, "Durability & recovery", has the table).
// Journal.Append encodes into a buffer it reuses, behind header bytes
// it fills in afterwards: no marshalling, no copy, no allocation per
// record.
//
// # Checkpoints and rotation
//
// Every CheckpointEvery records, and not before the log since the last
// checkpoint outweighs it, the journal asks its owner for a full state
// snapshot (Options.State, written in place into the reused frame
// buffer), writes it atomically (temp + fsync + rename) as
// ckpt-<seq>.snap, rotates to a fresh segment seg-<seq+1>.wal, fsyncs
// the directory (which it holds open: the new segment's entry and the
// checkpoint's rename are durable before the next append is), and
// deletes segments and checkpoints made redundant by the two newest
// checkpoints. Recovery loads the newest checkpoint that validates
// (falling back to its predecessor if the newest is damaged) and replays
// the records beyond it, skipping the segments it wholly covers.
//
// "Outweighs" compares framed bytes with the last checkpoint's frame (at
// first the one Open recovered). This is log compaction by size: past
// the record floor at most one checkpoint byte is written per WAL byte,
// and a restart replays at most about one checkpoint's worth.
//
// Appends are serialized by the caller's commit path; the journal adds
// only its own file-level locking, so Append is safe for concurrent use
// regardless.
//
// # Following
//
// A Follower is the one reader of a journal directory: recovery (Open,
// Recover) is the first Poll of a Follower at position 0, which, given a
// resync callback, starts at the newest valid checkpoint, or at the
// segments if there is none. It delivers each record of a journal another
// process is appending to exactly once, in order, and fences records of
// an ownership epoch older than one it has seen. Seq ≤ lastSeq is what
// makes exactly-once so. What makes it cheap is a byte cursor per live segment: the offset
// past the last complete frame walked (valid, or CRC-bad and skipped
// whole; never a torn tail, garbage with no frame after it, or a record
// the consumer refused), so a poll costs what is new. The cursor is
// never trusted over the sequence check: a later segment, a checkpoint
// resync, and a segment recreated and refilled under the reader —
// detected by re-reading the frame before the cursor — all start again
// at offset 0.
//
// # Observability
//
// The package registers journal.* metrics with internal/obs (appends,
// append latency, fsyncs, checkpoints, rotations, recovery and follower
// tallies); docs/OBSERVABILITY.md catalogs each one. `s3 diag -journal
// DIR` prints a journal directory as JSON lines.
package journal
