package dsl

import (
	"strconv"
	"strings"
)

// Parse parses a complete predicate. The top level of a predicate must be
// an operator application (paper form p = O(x)).
func Parse(src string) (*CallExpr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokEOF); err != nil {
		return nil, err
	}
	call, ok := expr.(*CallExpr)
	if !ok {
		return nil, syntaxErrf(expr.Pos(), "a predicate must be an operator application (MAX/MIN/KTH_MAX/KTH_MIN)")
	}
	return call, nil
}

type parser struct {
	toks []token
	at   int
}

func (p *parser) peek() token { return p.toks[p.at] }

func (p *parser) advance() token {
	t := p.toks[p.at]
	if t.kind != tokEOF {
		p.at++
	}
	return t
}

func (p *parser) expect(k tokenKind) error {
	t := p.peek()
	if t.kind != k {
		return syntaxErrf(t.pos, "expected %s, found %s", k, describe(t))
	}
	p.advance()
	return nil
}

func describe(t token) string {
	switch t.kind {
	case tokIdent:
		return "identifier " + strconv.Quote(t.text)
	case tokInt:
		return "integer " + t.text
	case tokRef:
		return "$" + t.text
	default:
		return t.kind.String()
	}
}

// parseExpr := parseMul (('+'|'-') parseMul)*
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPlus && t.kind != tokMinus {
			return left, nil
		}
		p.advance()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		op := byte('+')
		if t.kind == tokMinus {
			op = '-'
		}
		left = &BinExpr{Op: op, L: left, R: right, At: left.Pos()}
	}
}

// parseMul := parsePostfix (('*'|'/') parsePostfix)*
func (p *parser) parseMul() (Expr, error) {
	left, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokStar && t.kind != tokSlash {
			return left, nil
		}
		p.advance()
		right, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		op := byte('*')
		if t.kind == tokSlash {
			op = '/'
		}
		left = &BinExpr{Op: op, L: left, R: right, At: left.Pos()}
	}
}

// parsePostfix := parsePrimary ['.' IDENT]
func (p *parser) parsePostfix() (Expr, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokDot {
		return prim, nil
	}
	dot := p.advance()
	name := p.peek()
	if name.kind != tokIdent {
		return nil, syntaxErrf(dot.pos, "expected a stability-type name after '.', found %s", describe(name))
	}
	p.advance()
	return &TypedExpr{Set: prim, Type: name.text, At: prim.Pos()}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, syntaxErrf(t.pos, "integer literal %q out of range", t.text)
		}
		return &NumLit{Value: v, At: t.pos}, nil

	case tokRef:
		p.advance()
		return parseRef(t)

	case tokIdent:
		return p.parseIdentForm(t)

	case tokLParen:
		p.advance()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil

	default:
		return nil, syntaxErrf(t.pos, "expected an expression, found %s", describe(t))
	}
}

// parseIdentForm parses SIZEOF(...) or an operator call.
func (p *parser) parseIdentForm(t token) (Expr, error) {
	upper := strings.ToUpper(t.text)
	if upper == "SIZEOF" {
		p.advance()
		if err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &SizeofExpr{Arg: arg, At: t.pos}, nil
	}
	op, ok := opByName[upper]
	if !ok {
		return nil, syntaxErrf(t.pos, "unknown identifier %q (expected MAX, MIN, KTH_MAX, KTH_MIN or SIZEOF)", t.text)
	}
	p.advance()
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	call := &CallExpr{Op: op, At: t.pos}
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		next := p.peek()
		switch next.kind {
		case tokComma:
			p.advance()
		case tokRParen:
			p.advance()
			return call, nil
		default:
			return nil, syntaxErrf(next.pos, "expected ',' or ')' in argument list, found %s", describe(next))
		}
	}
}

// parseRef interprets the body of a $-reference token.
func parseRef(t token) (Expr, error) {
	body := t.text
	if isAllDigits(body) {
		idx, err := strconv.Atoi(body)
		if err != nil || idx < 1 {
			return nil, syntaxErrf(t.pos, "invalid node index $%s", body)
		}
		return &SetRef{Kind: SetIndex, Index: idx, At: t.pos}, nil
	}
	switch strings.ToUpper(body) {
	case "ALLWNODES":
		return &SetRef{Kind: SetAllWNodes, At: t.pos}, nil
	case "MYWNODE", "MYWNODES":
		return &SetRef{Kind: SetMyWNode, At: t.pos}, nil
	case "MYAZWNODES":
		return &SetRef{Kind: SetMyAZWNodes, At: t.pos}, nil
	}
	if rest, ok := cutPrefixFold(body, "WNODE_"); ok {
		if rest == "" {
			return nil, syntaxErrf(t.pos, "$WNODE_ needs a node name")
		}
		return &SetRef{Kind: SetWNodeNamed, Name: rest, At: t.pos}, nil
	}
	if rest, ok := cutPrefixFold(body, "AZ_"); ok {
		if rest == "" {
			return nil, syntaxErrf(t.pos, "$AZ_ needs an availability-zone name")
		}
		return &SetRef{Kind: SetAZNamed, Name: rest, At: t.pos}, nil
	}
	return nil, syntaxErrf(t.pos, "unknown reference $%s", body)
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return true
}

// cutPrefixFold is strings.CutPrefix with ASCII case-insensitive matching
// of the prefix.
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) {
		return "", false
	}
	if !strings.EqualFold(s[:len(prefix)], prefix) {
		return "", false
	}
	return s[len(prefix):], true
}
