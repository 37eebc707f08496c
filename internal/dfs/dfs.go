// Package dfs implements the simulated distributed filesystem that plays
// the role of HDFS in this reproduction. Files are append-only sequences
// of fixed-capacity blocks ("splits"); each block stores decoded records
// plus the byte size they would occupy as JSON lines on disk.
//
// Byte accounting is virtual: a ByteScale multiplier makes a laptop-sized
// dataset present the volumes of the paper's 100 GB–1 TB TPC-H
// instances, so split counts, shuffle volumes and the optimizer's memory
// checks against Mmax run at paper scale over records held in memory.
package dfs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dyno/internal/data"
)

// defaultBlockSize is the virtual HDFS block size (128 MB), matching the
// paper's cluster configuration.
const defaultBlockSize = 128 << 20

// FS is a simulated distributed filesystem, safe for concurrent use:
// reads (Open/List) share a lock, writers (Create/Append/Remove) hold it
// alone, and the byte scale, read for every record priced, is atomic.
type FS struct {
	mu        sync.RWMutex
	blockSize int64
	byteScale atomic.Uint64 // a float64's bits: every record priced reads it
	files     map[string]*File
}

// Option configures an FS.
type Option func(*FS)

// WithBlockSize sets the virtual block size in bytes.
func WithBlockSize(n int64) Option { return func(f *FS) { f.blockSize = n } }

// New returns an empty filesystem with ByteScale 1.
func New(opts ...Option) *FS {
	fs := &FS{
		blockSize: defaultBlockSize,
		files:     make(map[string]*File),
	}
	fs.SetByteScale(1)
	for _, o := range opts {
		o(fs)
	}
	return fs
}

// SetByteScale sets the multiplier applied to raw encoded record sizes,
// at read time: it affects blocks already stored too.
func (fs *FS) SetByteScale(s float64) {
	if s <= 0 {
		s = 1
	}
	fs.byteScale.Store(math.Float64bits(s))
}

// ByteScale returns the current byte-scale multiplier.
func (fs *FS) ByteScale() float64 { return math.Float64frombits(fs.byteScale.Load()) }

// Block is one split of a file: a run of records.
type Block struct {
	rawBytes int64
	records  []data.Value
	aux      atomic.Value
}

// NewBlock returns a block of recs that belongs to no file: a worker's
// decoded copy of a mirrored block, with a cache slot of its own.
func NewBlock(recs []data.Value) *Block { return &Block{records: recs} }

// Records returns the block's records. Callers must not mutate the
// slice.
func (b *Block) Records() []data.Value { return b.records }

// Aux returns the block's cache slot: blocks are immutable once
// written, so derived state (a columnar image) attached here serves
// every job that scans the split, and goes with the block.
func (b *Block) Aux() *atomic.Value { return &b.aux }

// NumRecords returns the number of records in the block.
func (b *Block) NumRecords() int { return len(b.records) }

// File is a named sequence of blocks.
type File struct {
	fs     *FS
	name   string
	blocks []*Block
	aux    sync.Map
	view   *View
}

// View says that a file's records are Base's blocks Splits, in that
// order, each run through Op: the operator (opaque here) of the
// map-only job that wrote the file.
type View struct {
	Base   *File
	Splits []int
	Op     any
}

// View returns what the file is a view of, or nil.
func (f *File) View() *View { return f.view }

// Aux returns the file's cache: files are immutable once written, so
// state derived from all their blocks (a built broadcast table) serves
// every job that reads the file, and goes with the file.
func (f *File) Aux() *sync.Map { return &f.aux }

// Name returns the file's path.
func (f *File) Name() string { return f.name }

// NumBlocks returns the number of blocks (splits).
func (f *File) NumBlocks() int { return len(f.blocks) }

// Block returns the i-th block.
func (f *File) Block(i int) *Block { return f.blocks[i] }

// Blocks returns all blocks. Callers must not mutate the slice.
func (f *File) Blocks() []*Block { return f.blocks }

// Size returns the file's virtual size in bytes.
func (f *File) Size() int64 {
	var raw int64
	for _, b := range f.blocks {
		raw += b.rawBytes
	}
	return int64(float64(raw) * f.fs.ByteScale())
}

// BlockSizeBytes returns the virtual size of the i-th block.
func (f *File) BlockSizeBytes(i int) int64 {
	return int64(float64(f.blocks[i].rawBytes) * f.fs.ByteScale())
}

// NumRecords returns the total record count.
func (f *File) NumRecords() int64 {
	var n int64
	for _, b := range f.blocks {
		n += int64(len(b.records))
	}
	return n
}

// AllRecords returns every record in block order. It copies the slice
// headers, not the records.
func (f *File) AllRecords() []data.Value {
	out := make([]data.Value, 0, f.NumRecords())
	for _, b := range f.blocks {
		out = append(out, b.records...)
	}
	return out
}

// AvgRecordSize returns the mean virtual record size in bytes, or 0 for
// an empty file.
func (f *File) AvgRecordSize() float64 {
	n := f.NumRecords()
	if n == 0 {
		return 0
	}
	return float64(f.Size()) / float64(n)
}

// Writer appends records to a file, cutting blocks at the block size.
type Writer struct {
	fs   *FS
	file *File
	cur  *Block
}

// Create creates (or truncates) a file and returns a writer for it.
func (fs *FS) Create(name string) *Writer {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &File{fs: fs, name: name}
	fs.files[name] = f
	return &Writer{fs: fs, file: f}
}

// Append writes one record.
func (w *Writer) Append(rec data.Value) { w.AppendAll([]data.Value{rec}) }

// AppendAll writes the records of every run, in order, under a single
// lock acquisition. A record that would take a non-empty block past the
// virtual block size starts the next one. The cuts are found first, so
// each new block is allocated once, at its final length.
func (w *Writer) AppendAll(runs ...[]data.Value) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	scale, limit := w.fs.ByteScale(), float64(w.fs.blockSize)
	sizes := []int{0} // records for w.cur, then for each new block
	var n int
	var raw int64
	if w.cur != nil {
		n, raw = len(w.cur.records), w.cur.rawBytes
	}
	for _, run := range runs {
		for _, rec := range run {
			r := rec.EncodedSize() + 1 // +1 for the newline in JSON-lines
			if w.cur == nil && len(sizes) == 1 || float64(raw+r)*scale > limit && n > 0 {
				sizes, n, raw = append(sizes, 0), 0, 0
			}
			sizes[len(sizes)-1]++
			n, raw = n+1, raw+r
		}
	}
	if sizes[0] > 0 {
		w.cur.records = slices.Grow(w.cur.records, sizes[0])
	}
	left, next := sizes[0], 1
	for _, run := range runs {
		for _, rec := range run {
			if left == 0 {
				left, next = sizes[next], next+1
				w.cur = &Block{records: make([]data.Value, 0, left)}
				w.file.blocks = append(w.file.blocks, w.cur)
			}
			w.cur.rawBytes += rec.EncodedSize() + 1
			w.cur.records = append(w.cur.records, rec)
			left--
		}
	}
}

// SetView records that the file being written is v.
func (w *Writer) SetView(v *View) { w.file.view = v }

// Close finalizes the file and returns it. An empty file has zero
// blocks.
func (w *Writer) Close() *File { return w.file }

// FirstRecord returns the file's first record (ok=false when empty):
// jobs compile expressions into positional accessors against it.
func (f *File) FirstRecord() (data.Value, bool) {
	for _, blk := range f.blocks {
		if len(blk.records) > 0 {
			return blk.records[0], true
		}
	}
	return data.Value{}, false
}

// Open returns the named file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q does not exist", name)
	}
	return f, nil
}

// Remove deletes the named file; removing a missing file is an error.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("dfs: file %q does not exist", name)
	}
	delete(fs.files, name)
	return nil
}

// List returns the sorted names of all files.
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalSize returns the virtual size of all files.
func (fs *FS) TotalSize() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var total int64
	for _, f := range fs.files {
		total += f.Size()
	}
	return total
}
