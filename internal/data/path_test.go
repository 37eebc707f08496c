package data

import (
	"slices"
	"testing"
)

func TestParsePathSimple(t *testing.T) {
	p, err := ParsePath("a.b.c")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[0].Name != "a" || p[2].Name != "c" {
		t.Errorf("parsed %v", p)
	}
	if p.String() != "a.b.c" {
		t.Errorf("round trip = %q", p.String())
	}
}

func TestParsePathSubscripts(t *testing.T) {
	p, err := ParsePath("rs.addr[0].zip")
	if err != nil {
		t.Fatal(err)
	}
	want := Path{
		{Name: "rs"},
		{Name: "addr"},
		{Index: 0, IsIndex: true},
		{Name: "zip"},
	}
	if !slices.Equal(p, want) {
		t.Errorf("parsed %#v", p)
	}
	if p.String() != "rs.addr[0].zip" {
		t.Errorf("round trip = %q", p.String())
	}
}

func TestParsePathChainedSubscripts(t *testing.T) {
	p, err := ParsePath("m[1][2]")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || !p[1].IsIndex || !p[2].IsIndex || p[2].Index != 2 {
		t.Errorf("parsed %#v", p)
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, bad := range []string{"", "a..b", "a.", "a[", "a[x]", "a[-1]", ".a"} {
		if _, err := ParsePath(bad); err == nil {
			t.Errorf("ParsePath(%q) should fail", bad)
		}
	}
}

func TestPathEval(t *testing.T) {
	row := Object(Field{"rs", Object(
		Field{"name", String("Taco Place")},
		Field{"addr", Array(
			Object(Field{"zip", Int(94301)}, Field{"state", String("CA")}),
			Object(Field{"zip", Int(10001)}, Field{"state", String("NY")}),
		)},
	)})
	cases := map[string]Value{
		"rs.name":          String("Taco Place"),
		"rs.addr[0].zip":   Int(94301),
		"rs.addr[1].state": String("NY"),
		"rs.addr[5].zip":   Null(),
		"rs.missing":       Null(),
		"other.name":       Null(),
	}
	for src, want := range cases {
		got := MustParsePath(src).Eval(row)
		if !Equal(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestPathHead(t *testing.T) {
	p := MustParsePath("rs.addr[0].zip")
	if p.Head() != "rs" {
		t.Errorf("Head = %q", p.Head())
	}
}

func TestMustParsePathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParsePath should panic on bad input")
		}
	}()
	MustParsePath("a..b")
}
