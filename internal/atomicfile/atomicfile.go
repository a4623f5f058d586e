package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes the output of write to path atomically: write
// receives the temporary file in path's directory itself, unbuffered (a
// caller that streams many small writes brings its own bufio.Writer);
// on success the temp file is fsynced, closed and renamed onto path. On
// any failure the temp file is removed and path is untouched.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: create temp for %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicfile: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: rename %s: %w", path, err)
	}
	return nil
}
