// Package atomicfile writes files so that a crash mid-save can never
// leave a truncated or half-written result in place: content is staged
// to a temporary file in the destination directory, fsynced,
// and only then renamed over the destination. Rename within one
// directory is atomic on POSIX systems, so readers observe either the
// old file or the complete new one — never a torn state.
//
// It backs every "save" path in the repository that a restart depends
// on: trace.SaveFile, society.SaveModel, and the journal's checkpoint
// snapshots.
//
// The package deliberately has no configuration and no metrics: it is
// the bottom of the durability stack and must stay obviously correct.
package atomicfile
