package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dyno/internal/data"
)

// decodeJSON decodes a body into a generic JSON value.
func decodeJSON(t *testing.T, b []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, b)
	}
	return v
}

// checkBody holds a query response body to json.Marshal of the view
// it was written from: the same JSON value, with the request's own
// wallMillis.
func checkBody(t *testing.T, what string, body []byte, view *response) {
	t.Helper()
	got := decodeJSON(t, body).(map[string]any)
	want, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	exp := decodeJSON(t, want).(map[string]any)
	exp["wallMillis"] = got["wallMillis"]
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("%s: body decodes to\n%v\nwant\n%v", what, got, exp)
	}
}

// writtenBody is what writeQuery writes for view.
func writtenBody(view *response) []byte {
	rec := httptest.NewRecorder()
	writeQuery(rec, view)
	return rec.Body.Bytes()
}

// q10Key is Q10's result table key under the default variant and
// strategy.
func q10Key(t *testing.T, s *Server) string {
	return "DYNOPT|UNC-1|" + mustNorm(t, s, "Q10")
}

// TestQueryBodiesDecodeAsTheView: the executing request's body, a
// deduped request's and a hit's each decode to the value json.Marshal
// gives for the response view they were drawn from, over the HTTP API.
func TestQueryBodiesDecodeAsTheView(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, results := s.shards[0].session()
	// The first job output of the execution holds its shard's
	// simulator until the second request waits on the execution; that
	// request needs no simulator.
	var once sync.Once
	s.hookJobOutput = func(context.Context) {
		once.Do(func() {
			for deadline := time.Now().Add(10 * time.Second); lookups(results) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("the second request never waited on the execution")
					return
				}
			}
		})
	}
	post := func() []byte {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"Q10","maxRows":1}`))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	bodies := make([][]byte, 3)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); bodies[0] = post() }()
	waitFor(t, func() bool { return builds(results) == 1 })
	go func() { defer wg.Done(); bodies[1] = post() }()
	wg.Wait()
	bodies[2] = post()
	if t.Failed() {
		t.FailNow()
	}

	proto, ok := results.Peek(q10Key(t, s))
	if !ok {
		t.Fatal("Q10 is not in its shard's result table")
	}
	req := Request{Query: "Q10", MaxRows: 1}
	for i, what := range []string{"executing", "deduped", "hit"} {
		view := requestView(proto, req, i == 2, i == 1)
		checkBody(t, what, bodies[i], view)
	}
	if bytes.Contains(bodies[0], []byte("resultCacheHit")) || !bytes.Contains(bodies[2], []byte(`"resultCacheHit":true`)) {
		t.Errorf("hit flags: executing %s\nhit %s", bodies[0], bodies[2])
	}
}

// TestStoredRowsMatchTheView sweeps maxRows around a real result's row
// count, Q9p's zero rows, and nil and empty rows, for every way a
// request is served, and holds each written body to its view.
func TestStoredRowsMatchTheView(t *testing.T) {
	s := newTestServer(t, nil)
	for _, q := range []string{"Q10", "Q9p"} {
		if _, err := s.query(context.Background(), Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	_, results := s.shards[0].session()
	proto, _ := results.Peek(q10Key(t, s))
	q9p, _ := results.Peek("DYNOPT|UNC-1|" + mustNorm(t, s, "Q9p"))
	n := len(proto.Rows)
	if n < 2 {
		t.Fatalf("Q10 returned %d rows; the sweep needs at least 2", n)
	}
	empty := &response{Variant: "DYNOPT", enc: &encodedRows{}}
	none := &response{Variant: "DYNOPT", Rows: []data.Value{}, enc: &encodedRows{}}
	for _, p := range []*response{proto, q9p, empty, none} {
		for _, maxRows := range []int{0, 1, n - 1, n, n + 1} {
			for _, flags := range [][2]bool{{false, false}, {false, true}, {true, false}} {
				view := requestView(p, Request{Query: "Q10", MaxRows: maxRows}, flags[0], flags[1])
				checkBody(t, fmt.Sprintf("%d rows, maxRows %d, hit/deduped %v", len(p.Rows), maxRows, flags),
					writtenBody(view), view)
			}
		}
	}
	for p, want := range map[*response]string{empty: `{"rows":null,`, none: `{"rows":[],`} {
		view := requestView(p, Request{MaxRows: 1}, true, false)
		if body := writtenBody(view); !bytes.HasPrefix(body, []byte(want)) {
			t.Errorf("a zero-row body is %s; want it to start %s", body, want)
		}
	}
}

// TestRowsEncodeOnFirstNeed: a maxRows: k request encodes the first k
// rows and no more; a later, wider request encodes only the rest.
func TestRowsEncodeOnFirstNeed(t *testing.T) {
	rows := []data.Value{
		data.Object(data.Field{Name: "s", Value: data.String(`<a href="x">&'</a> é ☃ 😀 \ `)}, data.Field{Name: "n", Value: data.Null()}),
		data.Array(data.Double(0.1), data.Double(1e21), data.Int(-7), data.Bool(true)),
		data.String("line\nbreak\ttab"),
		data.Double(-2.5),
	}
	proto := &response{Variant: "DYNOPT", Rows: rows, RowCount: len(rows), enc: &encodedRows{}}
	encoded := 0
	for _, k := range []int{2, 1, 3, 4, 2} {
		encoded = max(encoded, k)
		view := requestView(proto, Request{MaxRows: k}, true, false)
		checkBody(t, fmt.Sprintf("maxRows %d", k), writtenBody(view), view)
		if len(proto.enc.ends) != encoded {
			t.Fatalf("after maxRows %d: %d rows encoded, want %d", k, len(proto.enc.ends), encoded)
		}
	}
}

// TestStoredRowsUnderConcurrentRequests: views of one result written
// at once, each wanting a different number of rows, each get their own
// rows while the shared encoding grows under them.
func TestStoredRowsUnderConcurrentRequests(t *testing.T) {
	rows := make([]data.Value, 64)
	for i := range rows {
		rows[i] = data.Object(data.Field{Name: "i", Value: data.Int(int64(i))}, data.Field{Name: "s", Value: data.String(strings.Repeat("x", i))})
	}
	proto := &response{Variant: "DYNOPT", Rows: rows, RowCount: len(rows), enc: &encodedRows{}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g + 1; k <= len(rows); k += 8 {
				var got struct{ Rows []map[string]any }
				if err := json.Unmarshal(writtenBody(requestView(proto, Request{MaxRows: k}, true, false)), &got); err != nil {
					t.Error(err)
					return
				}
				if len(got.Rows) != k || got.Rows[k-1]["i"] != float64(k-1) {
					t.Errorf("maxRows %d: %d rows, last %v", k, len(got.Rows), got.Rows[len(got.Rows)-1])
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(proto.enc.ends) != len(rows) {
		t.Fatalf("%d rows encoded, want %d", len(proto.enc.ends), len(rows))
	}
}

// TestUnencodableRowFailsTheRequest: a row whose text is not JSON (a
// NaN double) fails the request with an error instead of a body that
// does not parse, and leaves the rows before it encoded. A DEL byte is
// JSON and is served.
func TestUnencodableRowFailsTheRequest(t *testing.T) {
	proto := &response{Variant: "DYNOPT", Rows: []data.Value{data.Int(1), data.String("\x7f"), data.Double(math.NaN())}, enc: &encodedRows{}}
	rec := httptest.NewRecorder()
	writeQuery(rec, requestView(proto, Request{MaxRows: 2}, false, false))
	var body struct{ Rows []any }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil || len(body.Rows) != 2 || body.Rows[1] != "\x7f" {
		t.Fatalf("the first two rows: status %d: %s", rec.Code, rec.Body)
	}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		writeQuery(rec, requestView(proto, Request{}, false, false))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "row 2 is not JSON") {
			t.Fatalf("an unencodable row: status %d: %s", rec.Code, rec.Body)
		}
	}
	if len(proto.enc.ends) != 2 || string(proto.enc.buf) != "1,\"\x7f\"," {
		t.Fatalf("a failed encoding left %q with %d rows", proto.enc.buf, len(proto.enc.ends))
	}
}

// TestNormalizationMemo: a text that fails to parse fails every time
// and leaves no entry; a memoized text executes again after an
// invalidate; the memo holds at most one entry per result the shards
// can hold.
func TestNormalizationMemo(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.ResultCacheSize, c.Shards = 2, 2 })
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.query(ctx, Request{SQL: "SELECT a.x FROM t a WHERE a.x = @"}); err == nil {
			t.Fatal("an unlexable text was accepted")
		}
	}
	if n, _, _, misses, _ := s.norms.Stats(); n != 0 || misses != 2 {
		t.Fatalf("after two failed parses the memo holds %d entries and normalized %d times; want 0 and 2", n, misses)
	}

	for i := 0; i < 3; i++ {
		if i == 2 {
			s.invalidate()
		}
		r, err := s.query(ctx, Request{Query: "Q10"})
		if err != nil {
			t.Fatal(err)
		}
		if r.ResultCacheHit != (i == 1) {
			t.Fatalf("request %d: hit = %v", i, r.ResultCacheHit)
		}
	}
	if _, _, hits, misses, _ := s.norms.Stats(); hits != 2 || misses != 3 {
		t.Fatalf("memo hits/misses = %d/%d, want 2/3", hits, misses)
	}
	if m := s.Metrics(); m.ResultCacheMisses != 2 || m.ResultCacheHits != 1 {
		t.Fatalf("results: misses %d hits %d, want 2/1", m.ResultCacheMisses, m.ResultCacheHits)
	}

	// Unknown tables normalize, then fail to plan at once.
	for i := 0; i < 10; i++ {
		s.query(ctx, Request{SQL: fmt.Sprintf("SELECT t.x FROM nosuch%d t", i)})
		if n, cost, _, _, _ := s.norms.Stats(); n > 4 || cost > 4 {
			t.Fatalf("memo holds %d entries of cost %d, bound 4", n, cost)
		}
	}
	if n, _, _, _, evicts := s.norms.Stats(); n != 4 || evicts == 0 {
		t.Fatalf("memo holds %d entries after %d evictions, want 4 after some", n, evicts)
	}
}

// BenchmarkResultCacheHit is one hit through the HTTP handler: a
// cached Q10 asked for with maxRows 20, at the smallest scale where
// Q10 returns 20 rows.
func BenchmarkResultCacheHit(b *testing.B) {
	cfg := testConfig()
	cfg.Scale = 1
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const body = `{"query":"Q10","maxRows":20}`
	serveOne := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	serveOne()
	if !bytes.Contains(serveOne().Body.Bytes(), []byte(`"resultCacheHit":true`)) {
		b.Fatal("the repeat did not hit")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne()
	}
}
