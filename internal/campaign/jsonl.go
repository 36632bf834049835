package campaign

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// The crash-consistency discipline shared by every JSONL file this
// repository persists (the result Store here, the cluster coordinator's
// write-ahead log in internal/cluster): records are appended as single
// newline-terminated Writes, so a kill mid-write tears exactly one
// unterminated fragment off the end of the file and nothing else.
// AppendJSONL is that writer; RecoverJSONL is the matching reader, which
// repairs that one legal kind of damage and refuses everything else.

// CorruptJSONLError reports a newline-terminated line that failed to
// parse during RecoverJSONL. A terminated line is never a torn write —
// appends terminate each record in the same Write that starts it — so
// the file was edited or corrupted, and truncating from the bad line
// would silently drop every valid record after it. Callers decide how
// to present that (the Store names the file and suggests repair).
type CorruptJSONLError struct {
	// Path is the file holding the bad line.
	Path string
	// Offset is the byte position of the first corrupt line.
	Offset int64
	// Err is the parse failure from the caller's line callback.
	Err error
}

// Error renders the offset and underlying parse failure.
func (e *CorruptJSONLError) Error() string {
	return fmt.Sprintf("%s: corrupt record at byte %d (not a torn tail): %v", e.Path, e.Offset, e.Err)
}

// Unwrap exposes the parse failure for errors.Is/As.
func (e *CorruptJSONLError) Unwrap() error { return e.Err }

// RecoverJSONL opens (creating if absent) the append-only JSONL file at
// path, calls line for every complete newline-terminated line in order,
// truncates away a final unterminated fragment — the torn tail a kill
// mid-append leaves, costing at most the one record that was being
// written — and returns the file reopened in append mode, positioned on
// a clean line boundary. A terminated line that line rejects is real
// corruption, not a torn write: RecoverJSONL fails with a
// *CorruptJSONLError instead of discarding the valid records after it.
func RecoverJSONL(path string, line func(data []byte) error) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	valid := 0 // byte length of the valid line-aligned prefix
	for len(data) > valid {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn final write: drop the unterminated fragment
		}
		if err := line(data[valid : valid+nl]); err != nil {
			f.Close()
			return nil, &CorruptJSONLError{Path: path, Offset: int64(valid), Err: err}
		}
		valid += nl + 1
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail of %s: %w", path, err)
	}
	f.Close()
	// Reopen in append mode for writing: the kernel serialises O_APPEND
	// writes at the file end, so even two processes appending to the same
	// file concurrently (unsupported, but it happens) interleave whole
	// lines — wasted duplicate work, never byte-level corruption.
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// AppendJSONL appends lines — one or more newline-terminated records —
// to f (opened in append mode by RecoverJSONL) as a single Write, then
// calls sync, if non-nil, to make them durable. On any failure, a short
// write or a sync error alike, it truncates f back to where the append
// began, so a failed append leaves no fragment for the next successful
// one to glue a record onto mid-file. It returns the file size after the
// append, which is exact while f has a single writer.
func AppendJSONL(f *os.File, lines []byte, sync func() error) (int64, error) {
	start, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(lines)
	if err == nil && sync != nil {
		err = sync()
	}
	if err != nil {
		if terr := f.Truncate(start); terr != nil {
			return 0, fmt.Errorf("%w (truncating the failed append also failed: %v)", err, terr)
		}
		return 0, err
	}
	return start + int64(len(lines)), nil
}
