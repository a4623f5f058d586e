package journal

import (
	"encoding/json"
	"fmt"
)

// The previous release stored each record as one JSON object. This
// release still reads them — a journal directory is upgraded in place,
// its old segments replayed and tailed until checkpoints prune them —
// but never writes one. The decoder goes with the next release; it is
// the only use of encoding/json in this package.
func decodeRecordJSON(payload []byte, r *Record) error {
	*r = Record{}
	if err := json.Unmarshal(payload, r); err != nil {
		return fmt.Errorf("journal: decode JSON record: %w", err)
	}
	return nil
}
