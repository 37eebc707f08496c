package sqlparse

import (
	"strings"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
)

func TestParsePaperQ1(t *testing.T) {
	// The paper's §4.1 example query.
	q, err := Parse(`SELECT rs.name
		FROM restaurant rs, review rv, tweet t
		WHERE rs.id = rv.rsid AND rv.tid = t.id
		AND rs.addr[0].zip = 94301 AND rs.addr[0].state = 'CA'
		AND sentanalysis(rv) = 'positive' AND checkid(rv, t)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 3 {
		t.Fatalf("FROM = %v", q.From)
	}
	if q.From[0].Table != "restaurant" || q.From[0].Alias != "rs" {
		t.Errorf("table ref = %+v", q.From[0])
	}
	conjuncts := expr.SplitConjuncts(q.Where)
	if len(conjuncts) != 6 {
		t.Fatalf("conjuncts = %d, want 6", len(conjuncts))
	}
	// Array path survives.
	found := false
	for _, c := range conjuncts {
		if strings.Contains(c.String(), "rs.addr[0].zip = 94301") {
			found = true
		}
	}
	if !found {
		t.Errorf("array path predicate missing: %v", q.Where)
	}
	if len(q.Select) != 1 || q.Select[0].Name() != "name" {
		t.Errorf("select = %+v", q.Select)
	}
}

func TestParseAggregatesGroupOrder(t *testing.T) {
	q, err := Parse(`SELECT n.n_name AS nation, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue, count(*)
		FROM lineitem l, nation n
		WHERE l.l_nk = n.n_nationkey
		GROUP BY n.n_name
		ORDER BY revenue DESC, nation
		LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasAggregates() {
		t.Error("HasAggregates should be true")
	}
	if q.Select[1].Agg != "sum" || q.Select[1].As != "revenue" {
		t.Errorf("sum item = %+v", q.Select[1])
	}
	if !q.Select[2].Star || q.Select[2].Agg != "count" {
		t.Errorf("count(*) item = %+v", q.Select[2])
	}
	if q.Select[2].Name() != "count_star" {
		t.Errorf("count(*) name = %q", q.Select[2].Name())
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].String() != "n.n_name" {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("order by = %+v", q.OrderBy)
	}
	if q.Limit != 10 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	q, err := Parse("SELECT a.x + a.y * 2 FROM t a")
	if err != nil {
		t.Fatal(err)
	}
	got := q.Select[0].E.String()
	if got != "(a.x + (a.y * 2))" {
		t.Errorf("precedence = %q", got)
	}
}

func TestParseParenthesesAndOr(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t a WHERE (a.x = 1 OR a.y = 2) AND a.z = 3")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.Where.(*expr.And)
	if !ok || len(and.Terms) != 2 {
		t.Fatalf("where = %v", q.Where)
	}
	if _, ok := and.Terms[0].(*expr.Or); !ok {
		t.Errorf("first term should be OR: %v", and.Terms[0])
	}
}

func TestParseNotAndComparisons(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t a WHERE NOT a.x <> 1 AND a.y <= 2 AND a.z >= 3 AND a.w != 4")
	if err != nil {
		t.Fatal(err)
	}
	cs := expr.SplitConjuncts(q.Where)
	if len(cs) != 4 {
		t.Fatalf("conjuncts = %d", len(cs))
	}
	if _, ok := cs[0].(*expr.Not); !ok {
		t.Errorf("NOT missing: %v", cs[0])
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t a WHERE a.name = 'O''Brien'")
	if err != nil {
		t.Fatal(err)
	}
	cmp := q.Where.(*expr.Cmp)
	if lit := cmp.R.(*expr.Lit); lit.V.Str() != "O'Brien" {
		t.Errorf("string literal = %q", lit.V.Str())
	}
}

func TestParseNumbers(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t a WHERE a.p > 0.05 AND a.q = 42 AND a.r = -7")
	if err != nil {
		t.Fatal(err)
	}
	cs := expr.SplitConjuncts(q.Where)
	if lit := cs[0].(*expr.Cmp).R.(*expr.Lit); lit.V.Kind() != data.KindDouble {
		t.Errorf("0.05 parsed as %v", lit.V.Kind())
	}
	if lit := cs[1].(*expr.Cmp).R.(*expr.Lit); lit.V.Int() != 42 {
		t.Errorf("42 parsed as %v", lit.V)
	}
	neg := cs[2].(*expr.Cmp).R
	ctx := &expr.Ctx{}
	if got := neg.Eval(ctx, data.Null()); got.Int() != -7 {
		t.Errorf("-7 evaluates to %v", got)
	}
}

func TestParseUDFPredicateBare(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t a, s b WHERE a.k = b.k AND checkid(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	cs := expr.SplitConjuncts(q.Where)
	call, ok := cs[1].(*expr.Call)
	if !ok || call.Name != "checkid" || len(call.Args) != 2 {
		t.Errorf("bare UDF = %v", cs[1])
	}
}

func TestParseStarSelect(t *testing.T) {
	q, err := Parse("SELECT * FROM t a")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Select[0].Star || q.Select[0].Name() != "*" {
		t.Errorf("star = %+v", q.Select[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a.x",                       // no FROM
		"SELECT a.x FROM",                  // missing table
		"SELECT a.x FROM t a WHERE",        // missing predicate
		"SELECT a.x FROM t a LIMIT x",      // bad limit
		"SELECT a.x FROM t a, s a",         // duplicate alias
		"SELECT b.x FROM t a",              // unknown alias
		"SELECT a.x FROM t a WHERE b.y=1",  // unknown alias in where
		"SELECT a.x FROM t a trailing",     // trailing ident
		"SELECT a.x FROM t a WHERE a.x='x", // unterminated string
		"SELECT a.addr[x] FROM t a",        // bad subscript
		"SELECT a.x FROM t a WHERE (a.x=1", // unbalanced paren
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic")
		}
	}()
	MustParse("nonsense")
}

func TestAliasesOrder(t *testing.T) {
	q := MustParse("SELECT a.x FROM t1 a, t2 b, t3 c")
	if len(q.From) != 3 || q.From[0].Alias != "a" || q.From[2].Alias != "c" {
		t.Errorf("from = %v", q.From)
	}
}

func TestDefaultAliasIsTableName(t *testing.T) {
	q := MustParse("SELECT lineitem.l_orderkey FROM lineitem")
	if q.From[0].Alias != "lineitem" {
		t.Errorf("alias = %q", q.From[0].Alias)
	}
}

func TestSelectItemNames(t *testing.T) {
	q := MustParse("SELECT a.x, a.nested.y, sum(a.z), a.w AS renamed FROM t a GROUP BY a.x")
	names := []string{"x", "y", "sum", "renamed"}
	for i, want := range names {
		if got := q.Select[i].Name(); got != want {
			t.Errorf("item %d name = %q, want %q", i, got, want)
		}
	}
}

func TestLexerEdgeCases(t *testing.T) {
	// != as an alias for <>.
	q := MustParse("SELECT a.x FROM t a WHERE a.x != 3")
	cmp := q.Where.(*expr.Cmp)
	if cmp.Op != expr.NE {
		t.Errorf("!= parsed as %v", cmp.Op)
	}
	// A leading-dot float.
	q = MustParse("SELECT a.x FROM t a WHERE a.p > .5")
	lit := q.Where.(*expr.Cmp).R.(*expr.Lit)
	if lit.V.Float() != 0.5 {
		t.Errorf(".5 parsed as %v", lit.V)
	}
	// Case-insensitive keywords, mixed-case identifiers preserved.
	q = MustParse("select MyCol.x from T MyCol where MyCol.x = 1")
	if q.From[0].Alias != "MyCol" {
		t.Errorf("alias case not preserved: %q", q.From[0].Alias)
	}
	// Keywords usable as field names after a dot.
	q = MustParse("SELECT a.order FROM t a")
	if q.Select[0].Name() != "order" {
		t.Errorf("keyword-ish field = %q", q.Select[0].Name())
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"SELECT a.x FROM t a WHERE a.x = ;",
		"SELECT a.x FROM t a WHERE a.x = @",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseNestedFunctionArgs(t *testing.T) {
	q := MustParse("SELECT a.x FROM t a WHERE f(g(a.x), a.y + 1)")
	call := q.Where.(*expr.Call)
	if call.Name != "f" || len(call.Args) != 2 {
		t.Fatalf("call = %v", call)
	}
	if inner, ok := call.Args[0].(*expr.Call); !ok || inner.Name != "g" {
		t.Errorf("nested call = %v", call.Args[0])
	}
}

func TestParseEmptyArgFunction(t *testing.T) {
	q := MustParse("SELECT a.x FROM t a WHERE now() = 1")
	cmp := q.Where.(*expr.Cmp)
	if call, ok := cmp.L.(*expr.Call); !ok || len(call.Args) != 0 {
		t.Errorf("zero-arg call = %v", cmp.L)
	}
}
