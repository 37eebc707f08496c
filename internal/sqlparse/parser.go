package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// TableRef is one relation in the FROM clause.
type TableRef struct {
	Table string
	Alias string // defaults to the table name
}

// SelectItem is one projection. Agg is "" for a scalar item or the
// lowercase aggregate name (count, sum, avg, min, max). Star marks
// SELECT * / COUNT(*).
type SelectItem struct {
	E    expr.Expr
	Agg  string
	Star bool
	As   string
}

// Name returns the output column name for the item.
func (s SelectItem) Name() string {
	if s.As != "" {
		return s.As
	}
	if s.Star {
		if s.Agg != "" {
			return s.Agg + "_star"
		}
		return "*"
	}
	if c, ok := s.E.(*expr.Col); ok && s.Agg == "" {
		// Last path component.
		str := c.Path.String()
		if i := strings.LastIndexByte(str, '.'); i >= 0 {
			return str[i+1:]
		}
		return str
	}
	if s.Agg != "" {
		return s.Agg
	}
	return s.E.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    expr.Expr
	Desc bool
}

// Query is a parsed SELECT statement.
type Query struct {
	Select  []SelectItem
	From    []TableRef
	Where   expr.Expr // nil when absent
	GroupBy []expr.Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// HasAggregates reports whether any select item aggregates.
func (q *Query) HasAggregates() bool {
	for _, s := range q.Select {
		if s.Agg != "" {
			return true
		}
	}
	return false
}

var aggregates = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

type parser struct {
	toks []token
	pos  int
}

// Parse parses a SQL statement.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlparse: trailing input at %q", p.peek().text)
	}
	return q, nil
}

// MustParse is Parse for statically known queries; it panics on error.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlparse: expected %s at position %d (found %q)", kw, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("sqlparse: expected %q at position %d (found %q)", s, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	p.acceptKeyword("DISTINCT") // accepted and ignored (projection dedup is not modeled)
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			item := OrderItem{E: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sqlparse: LIMIT needs a number, found %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sqlparse: bad LIMIT %q", t.text)
		}
		q.Limit = n
	}
	if err := p.validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// validate checks alias uniqueness and column alias resolution.
func (p *parser) validate(q *Query) error {
	seen := map[string]bool{}
	for _, ref := range q.From {
		if seen[ref.Alias] {
			return fmt.Errorf("sqlparse: duplicate alias %q in FROM", ref.Alias)
		}
		seen[ref.Alias] = true
	}
	check := func(e expr.Expr) error {
		if e == nil {
			return nil
		}
		for alias := range expr.Aliases(e) {
			if !seen[alias] {
				return fmt.Errorf("sqlparse: unknown alias %q", alias)
			}
		}
		return nil
	}
	if err := check(q.Where); err != nil {
		return err
	}
	for _, s := range q.Select {
		if err := check(s.E); err != nil {
			return err
		}
	}
	for _, g := range q.GroupBy {
		if err := check(g); err != nil {
			return err
		}
	}
	// ORDER BY may also reference select-item output names (e.g.
	// "ORDER BY revenue" for "sum(...) AS revenue").
	outNames := map[string]bool{}
	for _, s := range q.Select {
		outNames[s.Name()] = true
	}
	for _, o := range q.OrderBy {
		if c, ok := o.E.(*expr.Col); ok && len(c.Path) == 1 && outNames[c.Path.Head()] {
			continue
		}
		if err := check(o.E); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// SELECT * ?
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// Aggregate?
	if t := p.peek(); t.kind == tokIdent && aggregates[strings.ToLower(t.text)] &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
		agg := strings.ToLower(p.next().text)
		p.next() // '('
		item := SelectItem{Agg: agg}
		if p.acceptSymbol("*") {
			item.Star = true
		} else {
			p.acceptKeyword("DISTINCT")
			e, err := p.parseAdd()
			if err != nil {
				return SelectItem{}, err
			}
			item.E = e
		}
		if err := p.expectSymbol(")"); err != nil {
			return SelectItem{}, err
		}
		if p.acceptKeyword("AS") {
			item.As = p.next().text
		}
		return item, nil
	}
	e, err := p.parseAdd()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{E: e}
	if p.acceptKeyword("AS") {
		item.As = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return TableRef{}, fmt.Errorf("sqlparse: expected table name, found %q", t.text)
	}
	ref := TableRef{Table: t.text, Alias: t.text}
	p.acceptKeyword("AS")
	if a := p.peek(); a.kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar, loosest binding first.

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []expr.Expr{left}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return &expr.Or{Terms: terms}, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	terms := []expr.Expr{left}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return &expr.And{Terms: terms}, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.EQ, "<>": expr.NE, "!=": expr.NE,
	"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
}

func (p *parser) parseCmp() (expr.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokSymbol {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &expr.Cmp{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

// The arithmetic operators of each precedence level, loosest first.
var addOps, mulOps = map[string]expr.ArithOp{"+": expr.Add, "-": expr.Sub}, map[string]expr.ArithOp{"*": expr.Mul, "/": expr.Div}

func (p *parser) parseAdd() (expr.Expr, error) { return p.parseArith(addOps, p.parseMul) }

func (p *parser) parseMul() (expr.Expr, error) { return p.parseArith(mulOps, p.parsePrimary) }

// parseArith parses a left-associative chain of operands joined by the
// operators in ops.
func (p *parser) parseArith(ops map[string]expr.ArithOp, operand func() (expr.Expr, error)) (expr.Expr, error) {
	left, err := operand()
	for err == nil {
		t := p.peek()
		op, ok := ops[t.text]
		if t.kind != tokSymbol || !ok {
			return left, nil
		}
		p.next()
		var right expr.Expr
		right, err = operand()
		left = &expr.Arith{Op: op, L: left, R: right}
	}
	return nil, err
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlparse: bad number %q", t.text)
			}
			return expr.NewLit(data.Double(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: bad number %q", t.text)
		}
		return expr.NewLit(data.Int(i)), nil
	case tokString:
		p.next()
		return expr.NewLit(data.String(t.text)), nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			p.next()
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &expr.Arith{Op: expr.Sub, L: expr.NewLit(data.Int(0)), R: e}, nil
		}
		return nil, fmt.Errorf("sqlparse: unexpected symbol %q at %d", t.text, t.pos)
	case tokIdent:
		// Function call or path.
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			name := p.next().text
			p.next() // '('
			var args []expr.Expr
			if !p.acceptSymbol(")") {
				for {
					a, err := p.parseOr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptSymbol(")") {
						break
					}
					if err := p.expectSymbol(","); err != nil {
						return nil, err
					}
				}
			}
			return &expr.Call{Name: name, Args: args}, nil
		}
		return p.parsePath()
	default:
		return nil, fmt.Errorf("sqlparse: unexpected token %q at %d", t.text, t.pos)
	}
}

// parsePath parses ident ('.' ident | '[' num ']')* into a column.
func (p *parser) parsePath() (expr.Expr, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparse: expected identifier, found %q", t.text)
	}
	path := data.Path{{Name: t.text}}
	for {
		if p.acceptSymbol(".") {
			nt := p.next()
			if nt.kind != tokIdent && nt.kind != tokKeyword {
				return nil, fmt.Errorf("sqlparse: expected field after '.', found %q", nt.text)
			}
			path = append(path, data.Step{Name: nt.text})
			continue
		}
		if p.peek().kind == tokSymbol && p.peek().text == "[" {
			p.next()
			nt := p.next()
			if nt.kind != tokNumber {
				return nil, fmt.Errorf("sqlparse: expected index, found %q", nt.text)
			}
			idx, err := strconv.Atoi(nt.text)
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("sqlparse: bad index %q", nt.text)
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
			path = append(path, data.Step{Index: idx, IsIndex: true})
			continue
		}
		break
	}
	return &expr.Col{Path: path}, nil
}
