package data

// Arena chunk sizes, in fields (40 bytes each). The first chunk is
// small because a query runs a thousand tasks and most emit a handful
// of rows; the cap bounds what a lone retained row pins, since an object
// holds an interior pointer into its chunk (256 fields = 10 KiB), and
// what a task's last, part-filled chunk wastes.
const (
	arenaMinChunk = 16
	arenaMaxChunk = 256
)

// FieldArena carves the field slices of merged rows out of shared
// chunks, so a join task allocates per chunk, not per output row. A
// chunk is never reallocated once part of it is handed out: rows stay
// valid while anything references them, and a chunk is collected with
// its last row. The zero value is ready; an arena belongs to one task.
type FieldArena struct {
	chunk []Field // len = fields handed out, cap = chunk size
	next  int     // size of the next chunk
}

// Merge is MergeObjects with the row's fields carved out of the top of
// the current chunk — a new chunk when they do not fit. Fields reserved
// for a name clash that the merge did not need go back to the chunk.
func (a *FieldArena) Merge(x, y Value) Value {
	xf, yf := x.Fields(), y.Fields()
	n := len(xf) + len(yf)
	if n == 0 {
		return objectFromSorted(nil)
	}
	if n > cap(a.chunk)-len(a.chunk) {
		a.next = max(a.next, arenaMinChunk)
		a.chunk = make([]Field, 0, max(a.next, n))
		a.next = min(2*a.next, arenaMaxChunk)
	}
	top := len(a.chunk)
	fs := mergeFields(a.chunk[top:top:top+n], xf, yf)
	a.chunk = a.chunk[:top+len(fs)]
	return objectFromSorted(fs)
}

// Release hands a row's fields back when it is the arena's most recent
// Merge (a join residual rejected it): the next row reuses them, and
// they are cleared so the chunk pins nothing of a row never emitted.
// Any other value is left alone.
func (a *FieldArena) Release(v Value) {
	fs := v.Fields()
	top := len(a.chunk) - len(fs)
	if len(fs) == 0 || top < 0 || &a.chunk[top] != &fs[0] {
		return
	}
	clear(fs)
	a.chunk = a.chunk[:top]
}

// Reset forgets every row handed out so far and reuses the current
// chunk from its start: for scratch rows that no one references past
// the reset (a broadcast chain's intermediate rows).
func (a *FieldArena) Reset() { a.chunk = a.chunk[:0] }
