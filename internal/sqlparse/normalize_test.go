package sqlparse_test

import (
	"strings"
	"testing"

	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// FuzzNormalize: the query service keys its normalization memo and its
// result tables on Normalize, so Normalize never panics and is a fixed
// point on what it accepts — normalizing a normalized text changes
// nothing.
func FuzzNormalize(f *testing.F) {
	// One literal of each template replaced, as a client varying the
	// query would; Q2's new string carries an escaped quote.
	substituted := map[string][2]string{
		"Q2":  {"'EUROPE'", "'O''HARE'"},
		"Q7":  {"19950101", "19950102"},
		"Q8p": {"'1-URGENT'", "'2-HIGH'"},
		"Q9p": {"(1 - l.l_discount)", "(0.5 - l.l_discount)"},
		"Q10": {"19931001", "19931101"},
	}
	for _, name := range tpch.QueryNames {
		sql := tpch.MustQuerySQL(name)
		f.Add(sql)
		sub := substituted[name]
		if !strings.Contains(sql, sub[0]) {
			f.Fatalf("%s has no %s to substitute", name, sub[0])
		}
		f.Add(strings.Replace(sql, sub[0], sub[1], 1))
	}
	f.Fuzz(func(t *testing.T, sql string) {
		norm, err := sqlparse.Normalize(sql)
		if err != nil {
			return
		}
		again, err := sqlparse.Normalize(norm)
		if err != nil {
			t.Fatalf("Normalize(%q) = %q, which it rejects: %v", sql, norm, err)
		}
		if again != norm {
			t.Fatalf("Normalize(%q) = %q, but Normalize of that is %q", sql, norm, again)
		}
	})
}
