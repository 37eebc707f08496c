package procruntime

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// paddedRecs are n records big enough that their frame is far past the
// 2 KB net/http buffers before it chunks a response of unknown length.
func paddedRecs(n int) []data.Value {
	recs := make([]data.Value, n)
	for i := range recs {
		recs[i] = data.Object(
			data.Field{Name: "s", Value: data.String(fmt.Sprintf("row-%06d-padding-padding", i))},
			data.Field{Name: "v", Value: data.Int(int64(i))},
		)
	}
	return recs
}

// readFramed reads a frame response and requires it to have declared
// its length: the controller and peers size their read from it.
func readFramed(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := wire.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) < 8<<10 {
		t.Fatalf("HTTP %d with %d bytes; want a frame of several KB", resp.StatusCode, len(body))
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("%s answered Content-Length %d for a %d-byte frame", resp.Request.URL.Path, resp.ContentLength, len(body))
	}
	return body
}

// TestWorkerFramesDeclareTheirLength: /tasks and /shuffle (asked for two
// segments in one request) answer with a Content-Length, not chunked,
// so the reader sizes one buffer. The task
// is a chain, whose answer carries its joined rows (a scan's would be a
// few hundred bytes of positions).
func TestWorkerFramesDeclareTheirLength(t *testing.T) {
	w := NewWorker(expr.NewRegistry())
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	blocks := mirrorBlocks(t, paddedRecs(1000), paddedRecs(1000))
	probe := blocks[0]
	ref := wire.BuildRef{Name: "b0", Wrap: "b", Keys: []data.Path{data.MustParsePath("b.v")}, Blocks: blocks[1:]}
	op := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"},
		Steps: []physop.ChainStep{{Build: "b0", Keys: []data.Path{data.MustParsePath("t.v")}}}}
	frame, err := wire.EncodeTaskBatch([]*wire.Task{{Task: "t-m0", Kind: "map", Block: probe, Op: op, Builds: []wire.BuildRef{ref}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/tasks", wire.ContentTypeBinary, strings.NewReader(string(frame.Bytes())))
	frame.Close()
	if err != nil {
		t.Fatal(err)
	}
	results, err := wire.DecodeResultBatch(readFramed(t, resp))
	if err != nil || len(results) != 1 || results[0].Err != "" || len(results[0].Rows) != 1000 {
		t.Fatalf("decode: %v, %d results", err, len(results))
	}

	pairs := make([]wire.KV, 1000)
	for i, rec := range paddedRecs(len(pairs)) {
		pairs[i] = wire.KV{Key: data.Int(int64(i)), Tag: "L", Rec: rec}
	}
	w.retainShuffle("s1", partitioned(pairs), 1)
	w.retainShuffle("s2", partitioned(pairs[:10]), 1)
	ask := wire.EncodeShuffleRequest(0, []string{"s1", "s2"})
	resp, err = http.Post(ts.URL+"/shuffle", wire.ContentTypeBinary, bytes.NewReader(ask.Bytes()))
	ask.Close()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wire.DecodeShuffleSegments(readFramed(t, resp))
	if err != nil || len(segs) != 2 || len(segs[0]) != len(pairs) || len(segs[1]) != 10 {
		t.Fatalf("decode: %v, %d segments", err, len(segs))
	}
}

// TestLyingContentLengthIsRefused: a request that declares 100 MB and
// sends 10 bytes is an error. (wire's TestReadBodySizedRead holds the
// buffer sized for it to the read's cap, not the declaration.)
func TestLyingContentLengthIsRefused(t *testing.T) {
	ts := httptest.NewServer(NewWorker(expr.NewRegistry()).Handler())
	t.Cleanup(ts.Close)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /tasks HTTP/1.1\r\nHost: worker\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n0123456789",
		wire.ContentTypeBinary, 100<<20)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d (%s), want 400", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}
