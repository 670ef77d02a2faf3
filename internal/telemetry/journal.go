package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one line of the JSONL run journal. Fields carries the
// event-specific payload (episode reward, epsilon, suite progress, ...);
// numeric field values round-trip as float64 per encoding/json.
type Event struct {
	TS     time.Time      `json:"ts"`
	Event  string         `json:"event"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Journal appends structured events to a writer as JSON Lines. It is safe
// for concurrent use; write errors are sticky and reported by Err/Close so
// per-event call sites stay unconditional.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	err    error

	// Size-capped rotation (OpenJournal): when appending would push the
	// current file past maxBytes it is renamed to path+".1" (replacing
	// any previous rotation) and a fresh file is started, bounding a
	// long-running iprism-serve's disk use at ~2x the cap.
	path     string
	maxBytes int64
	written  int64
	bw       *bufio.Writer
	f        *os.File
}

// NewJournal wraps an existing writer. The caller keeps ownership of w.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w}
}

// journalMaxBytes is the size at which a journal file rotates, for every
// command that writes one.
const journalMaxBytes = 64 << 20

// OpenJournal creates (truncating) a journal file at path that rotates to
// path+".1" whenever appending would push it past journalMaxBytes. At most
// two files exist at any time: the live journal and the previous
// generation, so disk use stays bounded on long-running services. Close
// flushes and closes the file.
func OpenJournal(path string) (*Journal, error) {
	return openJournal(path, journalMaxBytes)
}

// openJournal is OpenJournal with the rotation size as a parameter.
func openJournal(path string, maxBytes int64) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open journal: %w", err)
	}
	bw := bufio.NewWriter(f)
	return &Journal{
		w:      bw,
		closer: &flushCloser{bw: bw, f: f},
		path:   path, maxBytes: maxBytes,
		bw: bw, f: f,
	}, nil
}

type flushCloser struct {
	bw *bufio.Writer
	f  *os.File
}

func (fc *flushCloser) Close() error {
	ferr := fc.bw.Flush()
	if cerr := fc.f.Close(); ferr == nil {
		ferr = cerr
	}
	return ferr
}

// Emit appends one event stamped with the current wall-clock time.
func (j *Journal) Emit(event string, fields map[string]any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	line, err := json.Marshal(Event{TS: time.Now(), Event: event, Fields: fields})
	if err != nil {
		j.err = err
		return
	}
	line = append(line, '\n')
	if j.maxBytes > 0 && j.written > 0 && j.written+int64(len(line)) > j.maxBytes {
		if err := j.rotate(); err != nil {
			j.err = err
			return
		}
	}
	_, j.err = j.w.Write(line)
	j.written += int64(len(line))
}

// rotate closes the live file, shifts it to path+".1" (replacing the
// previous generation) and starts a fresh file. Callers hold j.mu.
func (j *Journal) rotate() error {
	if err := j.bw.Flush(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(j.path, j.path+".1"); err != nil {
		return err
	}
	f, err := os.Create(j.path)
	if err != nil {
		return err
	}
	j.f, j.bw, j.written = f, bufio.NewWriter(f), 0
	j.w = j.bw
	j.closer = &flushCloser{bw: j.bw, f: f}
	return nil
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the underlying file when the journal owns one
// (OpenJournal); it returns the first write error either way.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closer != nil {
		if cerr := j.closer.Close(); j.err == nil {
			j.err = cerr
		}
		j.closer = nil
	}
	return j.err
}

// ReadJournal parses a JSONL event stream; blank lines are skipped.
func ReadJournal(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return out, fmt.Errorf("telemetry: journal line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// ReadJournalFile parses the JSONL journal at path.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}
