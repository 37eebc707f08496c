package sqlparse

import "strings"

// Normalize returns a canonical single-line rendering of a query:
// tokens joined by single spaces, keywords upper-cased, string
// literals re-quoted with ” escapes. Two queries differing only in
// whitespace, comments-free formatting, or keyword case normalize
// identically — the property the query service's result tables key on.
// Identifier case is preserved: the dialect's path expressions are
// case-sensitive.
func Normalize(input string) (string, error) {
	toks, err := lex(input)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		txt := t.text
		switch t.kind {
		case tokKeyword:
			txt = strings.ToUpper(txt)
		case tokString:
			txt = "'" + strings.ReplaceAll(txt, "'", "''") + "'"
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(txt)
	}
	return sb.String(), nil
}
