package lab

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"butterfly/internal/core"
)

// DefaultCacheDir is where butterflybench and butterflyd keep result blobs
// by default, next to the committed experiment outputs in results/.
const DefaultCacheDir = "results/cache"

// cacheFile is the one append-only file holding every result of a cache
// directory, one record per line: "<fingerprint> <compact JSON>\n".
const cacheFile = "blobs.log"

// Cache is the content-addressed result store: fingerprint → result blob,
// kept as lines of one append-only file. A hit short-circuits execution
// entirely, which is sound because a fingerprint names a deterministic
// simulation salted with the code version.
//
// Put appends a record with a single write on an O_APPEND descriptor, so
// records from any number of Cache values and processes sharing the
// directory never interleave. An in-memory index (fingerprint → record
// position) is built only by scanning the file: from the start on first
// use, then the new tail after each Put and on each miss that finds the
// file grown, so another process's results become visible on the next
// miss. Only newline-terminated lines are indexed, and a line that does not
// parse costs only its own record. The latest record for a fingerprint
// wins. All methods are safe for concurrent use.
type Cache struct {
	dir string

	mu sync.Mutex
	// w appends records (opened on the first Put); r reads them back
	// (opened once the file exists).
	w, r *os.File
	// index maps a fingerprint to its record's JSON within the file.
	index map[string]blobRef
	// scanned is the offset just past the last indexed line; end is the
	// file size the last scan saw. scanned < end means the file ends in a
	// line still unterminated (being written, or torn by a dead writer).
	scanned, end int64
	// buf is the scan's reusable read buffer.
	buf []byte

	hits   atomic.Uint64
	misses atomic.Uint64
	writes atomic.Uint64
}

// blobRef locates one record's JSON: n bytes at offset off.
type blobRef struct{ off, n int64 }

// CacheStats is a point-in-time snapshot of cache traffic.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Writes uint64 `json:"writes"`
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// OpenCache returns a cache rooted at dir ("" means DefaultCacheDir). The
// directory and its file are created on first write, so opening a cache
// never touches the filesystem.
func OpenCache(dir string) *Cache {
	if dir == "" {
		dir = DefaultCacheDir
	}
	return &Cache{dir: dir}
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// file returns the path of the cache's append-only result file.
func (c *Cache) file() string { return filepath.Join(c.dir, cacheFile) }

// Stats returns a snapshot of cache traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Writes: c.writes.Load()}
}

// Get looks up a result by fingerprint. On a hit the returned result is
// marked CacheHit with Attempts zeroed (this process never executed it); the
// recorded WallNs of the producing run is preserved so hit reporting can say
// how much time the cache saved. A record that cannot be read back, does not
// parse, or records another fingerprint counts as a miss.
func (c *Cache) Get(fp string) (*core.Result, bool) {
	f, ref, ok := c.lookup(fp)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	b := make([]byte, ref.n)
	var r core.Result
	if _, err := f.ReadAt(b, ref.off); err != nil || json.Unmarshal(b, &r) != nil || r.Fingerprint != fp {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	r.CacheHit = true
	r.Attempts = 0
	return &r, true
}

// lookup returns the read descriptor and the indexed record for fp,
// scanning the file's new tail first if fp is not indexed yet.
func (c *Cache) lookup(fp string) (*os.File, blobRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.index[fp]
	if !ok && c.scanLocked() == nil {
		ref, ok = c.index[fp]
	}
	return c.r, ref, ok
}

// Put stores a result under its fingerprint by appending one line to the
// cache file with a single write, so a concurrent Get in any process sees
// either the whole record or none of it.
func (c *Cache) Put(r *core.Result) error {
	fp := r.Fingerprint
	if fp == "" {
		return errors.New("lab: Put of result without fingerprint")
	}
	if strings.ContainsAny(fp, " \n") {
		return fmt.Errorf("lab: Put of result with malformed fingerprint %q", fp)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("lab: cache: %w", err)
	}
	line := make([]byte, 0, len(fp)+len(b)+3)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return fmt.Errorf("lab: cache: %w", err)
		}
		w, err := os.OpenFile(c.file(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("lab: cache: %w", err)
		}
		c.w = w
	}
	// A line torn by a writer that died mid-record must not swallow this
	// one: if the file ends unterminated, start on a fresh line.
	if err := c.scanLocked(); err != nil {
		return fmt.Errorf("lab: cache: %w", err)
	}
	if c.scanned < c.end {
		line = append(line, '\n')
	}
	line = append(line, fp...)
	line = append(line, ' ')
	line = append(line, b...)
	line = append(line, '\n')
	if _, err := c.w.Write(line); err != nil {
		return fmt.Errorf("lab: cache write: %w", err)
	}
	c.writes.Add(1)
	// Index the new tail, this record included. A failed scan loses
	// nothing: the next miss scans again.
	_ = c.scanLocked()
	return nil
}

// Close releases the cache file's descriptors. A later Put or Get opens
// them again.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, f := range []*os.File{c.w, c.r} {
		if f != nil {
			errs = append(errs, f.Close())
		}
	}
	c.w, c.r = nil, nil
	c.index, c.scanned, c.end = nil, 0, 0
	return errors.Join(errs...)
}

// Len counts the fingerprints the cache file holds a record for.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.scanLocked()
	return len(c.index)
}

// scanLocked indexes the newline-terminated lines appended to the cache
// file since the last scan. One fstat answers "nothing new"; a file that
// shrank (truncated by hand) is re-indexed from the start. A file that does
// not exist yet is an empty cache.
func (c *Cache) scanLocked() error {
	if c.r == nil {
		r, err := os.Open(c.file())
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		c.r = r
	}
	fi, err := c.r.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size == c.end {
		return nil
	}
	if size < c.end || c.index == nil {
		c.index = make(map[string]blobRef)
		c.scanned = 0
	}
	c.end = size
	if c.buf == nil {
		c.buf = make([]byte, 64<<10)
	}
	for c.scanned < size {
		n, err := c.r.ReadAt(c.buf[:min(int64(len(c.buf)), size-c.scanned)], c.scanned)
		if n == 0 && err != nil {
			return err
		}
		last := bytes.LastIndexByte(c.buf[:n], '\n')
		switch {
		case last < 0 && c.scanned+int64(n) >= size:
			return nil // an unterminated line: leave it for a later scan
		case last < 0:
			c.buf = make([]byte, 2*len(c.buf)) // a line longer than the buffer
		}
		for lines := c.buf[:last+1]; len(lines) > 0; {
			i := bytes.IndexByte(lines, '\n')
			c.indexLine(lines[:i+1])
			lines = lines[i+1:]
		}
	}
	return nil
}

// indexLine indexes one newline-terminated line at offset c.scanned and
// moves past it. Only a "<fp> {...}\n" line names a record, whose JSON is
// the rest of the line after the space; anything else (an empty line, or a
// torn record completed by the newline a later Put starts with) is skipped.
func (c *Cache) indexLine(line []byte) {
	body := line[:len(line)-1]
	if sp := bytes.IndexByte(body, ' '); sp > 0 && sp+1 < len(body) && body[sp+1] == '{' && body[len(body)-1] == '}' {
		c.index[string(body[:sp])] = blobRef{off: c.scanned + int64(sp) + 1, n: int64(len(body) - sp - 1)}
	}
	c.scanned += int64(len(line))
}
