// Package wire is the serialization layer of the multi-process
// execution backend: the binary frame codec for data values, operator
// specs (physop.OpSpec, carried as the engine's own expression, path
// and select-item values), tasks and results, and the controller/worker
// protocol messages. It holds no operator semantics: workers compile
// the decoded spec with physop.Compile like the in-process runtime.
//
// The codec is lossless where the engine's JSON reader is deliberately
// not (integral doubles decode as ints, 64-bit ints lose precision
// through float64): a value shipped to a worker and back compares
// data.Equal to the original and renders the identical String() image
// — the property the differential contract (same rows on both
// backends) rests on.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
)

// The controller/worker HTTP protocol has one data plane: tasks travel
// as per-worker batches to POST /tasks in DYT2 frames and are answered
// in DYR2 frames, map output stays on the producing worker and reduce
// inputs are pulled peer-to-peer: one POST /shuffle per producer, a
// DYF1 frame naming every segment the reduce task needs from it,
// answered by one DYS2 frame holding those segments in order.
// JSON carries the control plane only: register, heartbeat, status,
// drain and shuffle GC.

// ContentTypeBinary marks a binary-frame request or response body.
const ContentTypeBinary = "application/x-dyno-frame"

// MaxBodyBytes bounds every HTTP body either side of the protocol
// reads into memory. It sits above the largest legitimate frame (a
// shuffle partition or block is capped by the worker caches' 256 MB
// defaults) so a hostile or corrupt peer costs a refused request, not
// the process.
const MaxBodyBytes = 512 << 20

// BodyTooLargeError reports an HTTP body over MaxBodyBytes; servers
// answer it with 413.
type BodyTooLargeError struct {
	Limit int64
}

func (e *BodyTooLargeError) Error() string {
	return fmt.Sprintf("wire: body exceeds the %d-byte limit", e.Limit)
}

// bodyPrealloc caps the buffer ReadBody sizes from a declared
// Content-Length, so a header that lies costs at most this much.
const bodyPrealloc = 8 << 20

// ReadBody reads an HTTP body to EOF under MaxBodyBytes. declared is
// the message's Content-Length (-1 when unknown): a body announcing
// itself oversize is refused before a byte of it is buffered, and any
// other is read into one buffer of its declared size (up to
// bodyPrealloc) — plus the MinRead bytes ReadFrom wants free, so EOF
// arrives without a regrowth.
func ReadBody(r io.Reader, declared int64) ([]byte, error) {
	if declared > MaxBodyBytes {
		return nil, &BodyTooLargeError{Limit: MaxBodyBytes}
	}
	size := bytes.MinRead
	if declared >= 0 {
		size += int(min(declared, bodyPrealloc))
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(io.LimitReader(r, MaxBodyBytes+1)); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if len(b) > MaxBodyBytes {
		return nil, &BodyTooLargeError{Limit: MaxBodyBytes}
	}
	return b, nil
}

// Codec names a worker lists in Caps.Codecs. CodecBinary is the data
// plane and required; CodecJSON names the control-plane encoding every
// worker speaks and selects nothing.
const (
	CodecJSON   = "json"
	CodecBinary = "bin"
)

// Caps is what a worker can speak, announced at registration. The
// controller requires all three capabilities (see Check).
type Caps struct {
	// Codecs lists supported payload codecs ("bin", "json").
	Codecs []string `json:"codecs,omitempty"`
	// Batch reports support for the batched /tasks endpoint.
	Batch bool `json:"batch,omitempty"`
	// PeerShuffle reports support for worker-to-worker shuffle: the
	// worker retains map outputs in its shuffle registry, serves them
	// to peers from POST /shuffle, and assembles reduce inputs from
	// Fetches refs (local registry first, then one request per peer).
	PeerShuffle bool `json:"peerShuffle,omitempty"`
}

// CapsError refuses a worker that cannot speak the data plane; Missing
// names what it failed to announce.
type CapsError struct {
	Missing []string
}

func (e *CapsError) Error() string {
	return "wire: worker lacks required capabilities: " + strings.Join(e.Missing, ", ")
}

// Check returns a *CapsError unless the set announces binary frames,
// batched dispatch and peer shuffle.
func (c Caps) Check() error {
	var missing []string
	if !slices.Contains(c.Codecs, CodecBinary) {
		missing = append(missing, "bin codec")
	}
	if !c.Batch {
		missing = append(missing, "batch")
	}
	if !c.PeerShuffle {
		missing = append(missing, "peerShuffle")
	}
	if missing != nil {
		return &CapsError{Missing: missing}
	}
	return nil
}

// RegisterRequest announces a worker to the controller.
type RegisterRequest struct {
	// URL is the worker's base URL (e.g. http://127.0.0.1:9001).
	URL string `json:"url"`
	// Caps advertises what the worker speaks.
	Caps Caps `json:"caps,omitempty"`
}

// RegisterResponse configures the worker. UDF carries the
// controller's tpch.UDFParams as raw JSON (wire stays below the tpch
// package in the import graph; both ends marshal the same struct).
type RegisterResponse struct {
	ID              int             `json:"id"`
	HeartbeatMillis int             `json:"heartbeatMillis"`
	UDF             json.RawMessage `json:"udf,omitempty"`
}

// HeartbeatRequest keeps a registration alive.
type HeartbeatRequest struct {
	ID int `json:"id"`
}

// ShuffleGCRequest asks a worker to drop retained shuffle outputs by
// ID (the controller broadcasts one per retired job, to every worker,
// so hedged losers' orphaned registrations are collected too), and
// the blocks and tables it cached from the mirror files in Files: their
// DFS files are gone, so no task will name those spans again.
type ShuffleGCRequest struct {
	IDs   []string `json:"ids"`
	Files []string `json:"files,omitempty"`
}

// ShufflePart is a per-partition digest of retained map output — the
// engine's own digest type, so a worker's answer is accounted without
// conversion. The worker computes the virtual size with the
// controller's exact per-record arithmetic (int64(float64(EncodedSize+1)
// * ByteScale), summed as int64s), so the controller can account
// shuffle volume without ever seeing the pairs.
type ShufflePart = mapreduce.ShufflePart

// maxReducers bounds a task's reduce partition count at decode. The
// controller emits at most 2 × the cluster's reduce slots (see
// mapreduce.ReducersFor), orders of magnitude below this; a frame
// claiming more is hostile or corrupt.
const maxReducers = 1 << 16

// KV is one shuffled record — join/group key, input tag, record — the
// engine's own pair type, so a worker's map output is retained, served
// and reduced without conversion.
type KV = mapreduce.Pair

// SortKVs sorts pairs into reduce key order with the engine's own
// shuffle sort. Nothing in the runtime calls it (RunReduceTask sorts its
// own input); bench's sort probe measures it.
func SortKVs(pairs []KV) { mapreduce.SortPairsByKey(pairs) }

// ShuffleRef is one reduce-input segment, in map-output order: it lives
// in the registry of the worker at URL under shuffle ID, and the reduce
// task fetches its partition Part.
type ShuffleRef struct {
	URL  string
	ID   string
	Part int
}

// BlockRef is one mirrored DFS block: the DYB1 frame at [Off, Off+Len)
// of the mirror file File. A mirror file is written once, so its path is
// the version workers cache blocks and tables under.
type BlockRef struct {
	File     string
	Off, Len int64
}

// BuildRef describes one broadcast build side for a task: rebuild
// parameters plus the mirrored blocks holding the (unfiltered) build
// input, all from one mirror file.
type BuildRef struct {
	Name   string
	Wrap   string
	Filter expr.Expr
	Keys   []data.Path
	Blocks []BlockRef
}

// Task is one dispatched map or reduce task.
type Task struct {
	Task string
	Kind string // "map" | "reduce"
	Op   *physop.OpSpec

	// Map tasks. NumReducers is set only for a shuffle task (its op has
	// a reducer).
	InputIdx    int
	Block       BlockRef // the input split
	NumReducers int
	Builds      []BuildRef

	// Shuffle map tasks retain their partitioned output worker-side
	// under ShuffleID and answer with per-partition digests computed at
	// ByteScale. The re-run of a lost output is one more such task,
	// under a fresh ShuffleID.
	ShuffleID string
	ByteScale float64

	// Reduce tasks: the input is the concatenation of the Fetches
	// segments in order, sorted worker-side.
	Partition int
	Fetches   []ShuffleRef
}

// TaskResult is a task's output.
type TaskResult struct {
	Rows []data.Value
	// Sel answers a map task whose op answers with positions (an
	// unpruned scan, see physop.ScanImage): the ascending positions of
	// the split's records its filter kept. The controller takes those
	// rows from its own copy of the split, so none travel.
	Sel []int32
	// CPU is the task's UDF cost: its map or its reduce record loop.
	CPU float64
	Err string
	// Parts answers a map task with a ShuffleID: per-partition digests
	// of the retained output.
	Parts []ShufflePart
	// PeerBytes/PeerFetches report a reduce task's worker-to-worker
	// traffic: response bytes and requests, one per producing peer.
	PeerBytes   int64
	PeerFetches int
	// Worker is stamped by the controller's dispatch loop with the URL
	// of the worker that answered (the peer holding any retained
	// shuffle output); it never travels on the wire.
	Worker string
}
