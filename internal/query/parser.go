package query

import (
	"fmt"
	"strings"
	"unicode"

	"chimera/internal/dtype"
)

// Parse parses the query language described in the package comment.
//
// Grammar:
//
//	expr   := and ("or" and)*
//	and    := unary ("and" unary)*
//	unary  := "not" unary | "(" expr ")" | pred
//	pred   := "*"
//	        | "name" cmp value
//	        | "attr" "." key cmp value
//	        | ("type" | "input" | "output") "<=" typeexpr
//	        | "tr" "=" value
//	        | rel "(" value ")"          rel: descendantof ancestorof consumes produces
//	        | flag                        flag: derived materialized virtual executed simple compound
//	cmp    := "=" | "!=" | "~"
//	value  := bareword | "quoted string"
//	typeexpr := content[:format[:encoding]] with "_" for an unset dimension
func Parse(src string) (Expr, error) {
	p := &qparser{toks: qlex(src)}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("query: trailing input at %q", p.peek())
	}
	return e, nil
}

type qtok struct {
	text     string
	isString bool
}

// qlex splits the source into tokens: quoted strings, barewords (which
// may contain . - _ and alphanumerics), and single/double-char symbols.
func qlex(src string) []qtok {
	var toks []qtok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"':
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				b.WriteByte(src[j])
				j++
			}
			toks = append(toks, qtok{text: b.String(), isString: true})
			i = j + 1
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, qtok{text: "!="})
			i += 2
		case c == ':' && i+1 < len(src) && src[i+1] == ':':
			toks = append(toks, qtok{text: "::"})
			i += 2
		case c == '<' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, qtok{text: "<="})
			i += 2
		case strings.ContainsRune("()=~*:", rune(c)):
			toks = append(toks, qtok{text: string(c)})
			i++
		default:
			j := i
			for j < len(src) && isWordChar(src[j]) {
				j++
			}
			if j == i { // unknown char; emit as-is so the parser errors
				j = i + 1
			}
			toks = append(toks, qtok{text: src[i:j]})
			i = j
		}
	}
	return toks
}

func isWordChar(c byte) bool {
	return c == '.' || c == '-' || c == '_' ||
		unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// quote renders s as a string literal in qlex's syntax: a backslash
// takes the next byte literally, so escaping '"' and '\' is enough and
// every other byte — invalid UTF-8 included — stands for itself. (Go's
// %q would write escapes such as \xae, which qlex reads back as xae.)
func quote(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// renderValue renders s where the grammar reads a value: bare when the
// parser reads it back as exactly s (raw07, sdss::brgSearch:1.0),
// quoted otherwise ("y z").
func renderValue(s string) string {
	p := &qparser{toks: qlex(s)}
	if v, err := p.value(); err == nil && p.eof() && v == s {
		return s
	}
	return quote(s)
}

type qparser struct {
	toks []qtok
	pos  int
}

func (p *qparser) eof() bool { return p.pos >= len(p.toks) }

func (p *qparser) peek() string {
	if p.eof() {
		return "<eof>"
	}
	return p.toks[p.pos].text
}

func (p *qparser) accept(text string) bool {
	if !p.eof() && !p.toks[p.pos].isString && p.toks[p.pos].text == text {
		p.pos++
		return true
	}
	return false
}

func (p *qparser) value() (string, error) {
	if p.eof() {
		return "", fmt.Errorf("query: expected value, found end of input")
	}
	t := p.toks[p.pos]
	if !t.isString && strings.ContainsAny(t.text, "()=~") {
		return "", fmt.Errorf("query: expected value, found %q", t.text)
	}
	p.pos++
	// Allow ns::name:version refs: join colon-separated word tokens.
	for !t.isString && !p.eof() && !p.toks[p.pos].isString &&
		(p.toks[p.pos].text == ":" || p.toks[p.pos].text == "::") {
		sep := p.toks[p.pos].text
		p.pos++
		if p.eof() || p.toks[p.pos].isString {
			return "", fmt.Errorf("query: dangling %q in value", sep)
		}
		t.text += sep + p.toks[p.pos].text
		p.pos++
	}
	return t.text, nil
}

func (p *qparser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = orExpr{l, r}
	}
	return l, nil
}

func (p *qparser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("and") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = andExpr{l, r}
	}
	return l, nil
}

func (p *qparser) parseUnary() (Expr, error) {
	if p.accept("not") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{e}, nil
	}
	if p.accept("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, fmt.Errorf("query: expected ')', found %q", p.peek())
		}
		return e, nil
	}
	return p.parsePred()
}

// strCmp parses `cmp value` into a compiled comparison. A malformed
// glob is rejected here, so a bad pattern errors identically whatever
// the catalog holds and whichever path the planner takes.
func (p *qparser) strCmp() (strCmp, error) {
	op, err := p.cmp()
	if err != nil {
		return strCmp{}, err
	}
	v, err := p.value()
	if err != nil {
		return strCmp{}, err
	}
	return newStrCmp(op, v)
}

func (p *qparser) cmp() (cmpOp, error) {
	switch {
	case p.accept("="):
		return opEq, nil
	case p.accept("!="):
		return opNe, nil
	case p.accept("~"):
		return opMatch, nil
	}
	return 0, fmt.Errorf("query: expected comparison operator, found %q", p.peek())
}

func (p *qparser) parsePred() (Expr, error) {
	if p.accept("*") {
		return All, nil
	}
	if p.eof() {
		return nil, fmt.Errorf("query: expected predicate, found end of input")
	}
	head := p.toks[p.pos]
	if head.isString {
		return nil, fmt.Errorf("query: unexpected string %q", head.text)
	}
	switch {
	case head.text == "name":
		p.pos++
		cmp, err := p.strCmp()
		if err != nil {
			return nil, err
		}
		return namePred{cmp: cmp}, nil

	case strings.HasPrefix(head.text, "attr."):
		key := strings.TrimPrefix(head.text, "attr.")
		if key == "" {
			return nil, fmt.Errorf("query: empty attribute key")
		}
		p.pos++
		cmp, err := p.strCmp()
		if err != nil {
			return nil, err
		}
		return attrPred{key: key, cmp: cmp}, nil

	case head.text == "type" || head.text == "input" || head.text == "output":
		field := head.text
		p.pos++
		if !p.accept("<=") {
			return nil, fmt.Errorf("query: expected '<=' after %q, found %q", field, p.peek())
		}
		t, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		return typePred{t: t, output: field == "output", field: field}, nil

	case head.text == "tr":
		p.pos++
		if !p.accept("=") {
			return nil, fmt.Errorf("query: expected '=' after tr, found %q", p.peek())
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		return trPred{ref: v}, nil

	case head.text == "descendantof" || head.text == "ancestorof" ||
		head.text == "consumes" || head.text == "produces":
		rel := head.text
		p.pos++
		if !p.accept("(") {
			return nil, fmt.Errorf("query: expected '(' after %s, found %q", rel, p.peek())
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, fmt.Errorf("query: expected ')' after %s argument, found %q", rel, p.peek())
		}
		return relPred{rel: rel, ds: v}, nil

	case head.text == "derived" || head.text == "materialized" || head.text == "virtual" ||
		head.text == "executed" || head.text == "simple" || head.text == "compound":
		p.pos++
		return flagPred{flag: head.text}, nil
	}
	return nil, fmt.Errorf("query: unknown predicate %q", head.text)
}

// parseTypeExpr parses content[:format[:encoding]] with "_" wildcards,
// or a quoted string in dtype.ParseType's "c;f;e" form.
func (p *qparser) parseTypeExpr() (dtype.Type, error) {
	if p.eof() {
		return dtype.Type{}, fmt.Errorf("query: expected type, found end of input")
	}
	if p.toks[p.pos].isString {
		t, err := dtype.ParseType(p.toks[p.pos].text)
		if err != nil {
			return dtype.Type{}, err
		}
		p.pos++
		return t, nil
	}
	var t dtype.Type
	for i, d := range dtype.Dimensions() {
		if p.eof() {
			return dtype.Type{}, fmt.Errorf("query: truncated type expression")
		}
		name := p.toks[p.pos].text
		p.pos++
		if i == 0 && name == "Dataset" {
			// The untyped base type, matching everything.
			return dtype.Universal, nil
		}
		if name != "_" {
			t = t.With(d, name)
		}
		if i == len(dtype.Dimensions())-1 || !p.accept(":") {
			break
		}
	}
	// typePred renders t through Type.String, which dtype.ParseType reads
	// back; a component that round trip cannot carry (";", "*",
	// surrounding white space) would not identify the query.
	if u, err := dtype.ParseType(t.String()); err != nil || u != t {
		return dtype.Type{}, fmt.Errorf("query: bad type component in %q", t.String())
	}
	return t, nil
}
