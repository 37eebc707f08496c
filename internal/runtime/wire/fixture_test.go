package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/physop"
	"dyno/internal/sqlparse"
)

// The DYT1 fixtures under testdata pin the task frame layout across
// commits: one committed batch per operator kind, built from engine
// values (expressions, paths, select items, a live-column map) the way
// the compiler builds them. They were first written by the build that
// still converted those values through a mirror layer of wire-only
// types, and rewritten, in a commit of their own, when a block
// reference became a span of a mirror file, and again when the frame
// dropped the fields a worker derives (HasReduce, RunCombine,
// RetainShuffle) or never reads (Job), and again when a fetch lost its
// inline pairs (a lost segment is re-run onto a worker and fetched
// like any other), and again when an aggregate op lost its combiner
// flag (there is one aggregation path, the plain reducer); a committed
// frame must decode here and re-encode to the same bytes, and the same
// tasks built today must encode to the committed bytes.
//
// Regenerate with: go test ./internal/runtime/wire -run TestTaskFrameFixtures -update-fixtures
var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/*.dyt1 from the current encoder")

func fixturePath(s string) data.Path { return data.MustParsePath(s) }

func fixtureCol(s string) expr.Expr { return &expr.Col{Path: fixturePath(s)} }

// fixtureTasks builds the task batch for one operator kind.
func fixtureTasks(t *testing.T, kind string) []*Task {
	t.Helper()
	filter := &expr.And{Terms: []expr.Expr{
		&expr.Cmp{Op: expr.LE, L: fixtureCol("l.l_quantity"), R: &expr.Lit{V: data.Double(24)}},
		&expr.Call{Name: "q9_keep_part", Args: []expr.Expr{fixtureCol("l.l_comment"), &expr.Lit{V: data.Int(1 << 53)}}},
	}}
	residual := &expr.Or{Terms: []expr.Expr{
		&expr.Not{E: &expr.Cmp{Op: expr.EQ, L: fixtureCol("o.o_orderstatus"), R: &expr.Lit{V: data.String("F\x00")}}},
		&expr.Cmp{Op: expr.GT,
			L: &expr.Arith{Op: expr.Mul, L: fixtureCol("l.l_extendedprice"),
				R: &expr.Arith{Op: expr.Sub, L: &expr.Lit{V: data.Int(1)}, R: fixtureCol("l.l_discount")}},
			R: &expr.Lit{V: data.Double(-0.0)}},
	}}
	live := map[string]map[string]bool{
		"l": {"l_orderkey": true, "l_discount": true, "l_extendedprice": true},
		"o": nil, // fully live: omitted from the frame
		"n": {},
	}
	paths := func(ps ...string) []data.Path {
		out := make([]data.Path, len(ps))
		for i, p := range ps {
			out[i] = fixturePath(p)
		}
		return out
	}
	switch kind {
	case "scan":
		op := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "l", Filter: filter}, Prune: live}
		return []*Task{
			{Task: "scan/q1-m0", Kind: "map", Op: op, Block: BlockRef{File: "/spill/f000001.mir", Len: 412}},
			{Task: "scan/q1-m1", Kind: "map", Op: &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{}}, Block: BlockRef{File: "/spill/f000001.mir", Off: 412, Len: 97}},
		}
	case "repartition":
		op := &physop.OpSpec{
			Kind:      physop.Repartition,
			Left:      &physop.Source{Wrap: "o"},
			Right:     &physop.Source{Wrap: "l", Filter: filter},
			LeftKeys:  paths("o.o_orderkey"),
			RightKeys: paths("l.l_orderkey"),
			Residual:  residual,
			Prune:     live,
		}
		return []*Task{
			{Task: "j1-m0", Kind: "map", Op: op, InputIdx: 1, Block: BlockRef{File: "/spill/f000002.mir", Off: 3 << 20, Len: 1 << 20},
				NumReducers: 6, ShuffleID: "j1-m0#7", ByteScale: 1234.5},
			{Task: "j1-r3", Kind: "reduce", Op: op, Partition: 3, Fetches: []ShuffleRef{
				{URL: "http://127.0.0.1:9001", ID: "j1-m0#7", Part: 3},
				{URL: "http://127.0.0.1:9002", ID: "j1-m1#8", Part: 3},
			}},
		}
	case "chain":
		op := &physop.OpSpec{
			Kind:   physop.Chain,
			Source: &physop.Source{Wrap: "l", Filter: filter},
			Steps: []physop.ChainStep{
				{Build: "b0", Keys: paths("l.l_partkey", "l.l_suppkey"), Residual: residual},
				{Build: "b1", Keys: paths("ps.ps_suppkey")},
			},
			Prune: live,
		}
		return []*Task{{
			Task: "j2-m4", Kind: "map", Op: op, Block: BlockRef{File: "/spill/f000003.mir", Off: 70211, Len: 18004},
			Builds: []BuildRef{
				{Name: "b0", Wrap: "ps", Filter: &expr.Cmp{Op: expr.NE, L: fixtureCol("ps.ps_availqty"), R: &expr.Lit{V: data.Null()}},
					Keys:   paths("ps.ps_partkey", "ps.ps_suppkey"),
					Blocks: []BlockRef{{File: "/spill/f000004.mir", Len: 5120}, {File: "/spill/f000004.mir", Off: 5120, Len: 640}}},
				{Name: "b1", Keys: paths("s.s_suppkey"),
					Blocks: []BlockRef{{File: "/spill/f000005.mir", Len: 233}}},
			},
		}}
	case "aggregate":
		op := &physop.OpSpec{
			Kind:    physop.Aggregate,
			GroupBy: []expr.Expr{fixtureCol("n.n_name"), &expr.Arith{Op: expr.Div, L: fixtureCol("o.o_year"), R: &expr.Lit{V: data.Int(10)}}},
			Select: []sqlparse.SelectItem{
				{E: fixtureCol("n.n_name")}, // travels under its frozen output name "n_name"
				{E: &expr.Arith{Op: expr.Mul, L: fixtureCol("l.l_extendedprice"), R: &expr.Lit{V: data.Int(1)}}, Agg: "sum", As: "amount"},
				{Agg: "count", Star: true},
			},
		}
		return []*Task{
			{Task: "agg-m0", Kind: "map", Op: op, Block: BlockRef{File: "/spill/f000006.mir", Len: 1 << 16},
				NumReducers: 2, ShuffleID: "agg-m0#9", ByteScale: 0.5},
			{Task: "agg-r1", Kind: "reduce", Op: op, Partition: 1,
				Fetches: []ShuffleRef{{URL: "http://127.0.0.1:9002", ID: "agg-m0#9", Part: 1}}},
		}
	}
	t.Fatalf("no fixture for op kind %q", kind)
	return nil
}

func TestTaskFrameFixtures(t *testing.T) {
	for _, kind := range []string{"scan", "repartition", "chain", "aggregate"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join("testdata", "task_"+kind+".dyt1")
			frame, err := EncodeTaskBatch(fixtureTasks(t, kind))
			if err != nil {
				t.Fatal(err)
			}
			defer frame.Close()
			if *updateFixtures {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, frame.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update-fixtures)", err)
			}
			if !bytes.Equal(frame.Bytes(), want) {
				t.Errorf("today's encoder writes a different %s frame than the committed fixture:\n  got  %x\n  want %x", kind, frame.Bytes(), want)
			}
			tasks, err := DecodeTaskBatch(want)
			if err != nil {
				t.Fatalf("committed %s fixture no longer decodes: %v", kind, err)
			}
			again, err := EncodeTaskBatch(tasks)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if !bytes.Equal(again.Bytes(), want) {
				t.Errorf("decoded %s fixture re-encodes to a different frame", kind)
			}
		})
	}
}
