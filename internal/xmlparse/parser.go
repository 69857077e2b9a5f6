// Package xmlparse implements a from-scratch, non-validating XML parser that
// shreds documents straight into the columnar store of internal/tree. It
// handles elements, attributes (single- or double-quoted), character data,
// CDATA sections, comments, processing instructions, the XML declaration, a
// (skipped) DOCTYPE, and the predefined plus numeric character references.
// Namespace prefixes are kept verbatim as part of the name — the engine
// treats QNames as opaque strings, exactly like the paper's configurable
// "qualified-name" options.
package xmlparse

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"soxq/internal/tree"
)

// Options tunes parsing behaviour.
type Options struct {
	// DropWhitespaceText discards text nodes that consist solely of XML
	// whitespace (space, tab, CR, LF). Useful for pretty-printed documents
	// where indentation is not data.
	DropWhitespaceText bool
}

// SyntaxError describes a well-formedness violation with its position.
type SyntaxError struct {
	Doc  string
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlparse: %s:%d:%d: %s", e.Doc, e.Line, e.Col, e.Msg)
}

// Parse shreds data into a document named name.
func Parse(name string, data []byte) (*tree.Doc, error) {
	return ParseWithOptions(name, data, Options{})
}

// ParseFile reads and shreds the file at path, using path as document name.
func ParseFile(path string) (*tree.Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// ParseWithOptions shreds data into a document named name using opts.
func ParseWithOptions(name string, data []byte, opts Options) (*tree.Doc, error) {
	p := &parser{
		name: name,
		data: data,
		b:    tree.NewBuilder(name),
		opts: opts,
		line: 1,
		col:  1,
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.b.Done()
}

type parser struct {
	name string
	data []byte
	pos  int
	line int
	col  int
	b    *tree.Builder
	opts Options

	depth   int  // open element depth
	sawRoot bool // a root element has been completed or opened
	stack   []string
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Doc: p.name, Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.data) }

// advance moves the cursor n bytes forward, maintaining line/col.
func (p *parser) advance(n int) {
	for i := 0; i < n; i++ {
		if p.data[p.pos] == '\n' {
			p.line++
			p.col = 1
		} else {
			p.col++
		}
		p.pos++
	}
}

func (p *parser) rest() []byte { return p.data[p.pos:] }

func (p *parser) hasPrefix(s string) bool {
	r := p.rest()
	return len(r) >= len(s) && string(r[:len(s)]) == s
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *parser) skipSpace() {
	for !p.eof() && isSpace(p.data[p.pos]) {
		p.advance(1)
	}
}

// isNameStart / isNameChar implement a pragmatic superset of XML name rules
// covering ASCII names plus any multi-byte UTF-8 (accepted verbatim).
func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) readName() (string, error) {
	start := p.pos
	if p.eof() || !isNameStart(p.data[p.pos]) {
		return "", p.errf("expected name")
	}
	for !p.eof() && isNameChar(p.data[p.pos]) {
		p.advance(1)
	}
	return string(p.data[start:p.pos]), nil
}

func (p *parser) expect(s string) error {
	if !p.hasPrefix(s) {
		return p.errf("expected %q", s)
	}
	p.advance(len(s))
	return nil
}

func (p *parser) run() error {
	// Optional XML declaration.
	if p.hasPrefix("<?xml") && len(p.data) > p.pos+5 && (isSpace(p.data[p.pos+5]) || p.data[p.pos+5] == '?') {
		end := bytes.Index(p.rest(), []byte("?>"))
		if end < 0 {
			return p.errf("unterminated XML declaration")
		}
		p.advance(end + 2)
	}
	for !p.eof() {
		c := p.data[p.pos]
		if c == '<' {
			if err := p.markup(); err != nil {
				return err
			}
			continue
		}
		if err := p.text(); err != nil {
			return err
		}
	}
	if p.depth != 0 {
		return p.errf("unexpected end of input: %d unclosed element(s), innermost <%s>", p.depth, p.stack[len(p.stack)-1])
	}
	if !p.sawRoot {
		return p.errf("document has no root element")
	}
	return nil
}

func (p *parser) markup() error {
	switch {
	case p.hasPrefix("<!--"):
		return p.comment()
	case p.hasPrefix("<![CDATA["):
		return p.cdata()
	case p.hasPrefix("<!DOCTYPE"):
		return p.doctype()
	case p.hasPrefix("<?"):
		return p.pi()
	case p.hasPrefix("</"):
		return p.endTag()
	default:
		return p.startTag()
	}
}

func (p *parser) comment() error {
	p.advance(4)
	idx := bytes.Index(p.rest(), []byte("-->"))
	if idx < 0 {
		return p.errf("unterminated comment")
	}
	body := string(p.rest()[:idx])
	if strings.Contains(body, "--") {
		return p.errf("'--' not allowed inside comment")
	}
	p.b.Comment(body)
	p.advance(idx + 3)
	return nil
}

func (p *parser) cdata() error {
	if p.depth == 0 {
		return p.errf("CDATA outside the root element")
	}
	p.advance(9)
	idx := bytes.Index(p.rest(), []byte("]]>"))
	if idx < 0 {
		return p.errf("unterminated CDATA section")
	}
	p.b.Text(string(p.rest()[:idx]))
	p.advance(idx + 3)
	return nil
}

// doctype skips over an (optionally bracketed) document type declaration.
func (p *parser) doctype() error {
	if p.sawRoot {
		return p.errf("DOCTYPE after root element")
	}
	p.advance(len("<!DOCTYPE"))
	bracket := 0
	for !p.eof() {
		switch p.data[p.pos] {
		case '[':
			bracket++
		case ']':
			bracket--
		case '>':
			if bracket == 0 {
				p.advance(1)
				return nil
			}
		}
		p.advance(1)
	}
	return p.errf("unterminated DOCTYPE")
}

func (p *parser) pi() error {
	p.advance(2)
	target, err := p.readName()
	if err != nil {
		return p.errf("expected processing-instruction target")
	}
	if strings.EqualFold(target, "xml") {
		return p.errf("reserved PI target %q", target)
	}
	idx := bytes.Index(p.rest(), []byte("?>"))
	if idx < 0 {
		return p.errf("unterminated processing instruction")
	}
	data := strings.TrimLeft(string(p.rest()[:idx]), " \t\r\n")
	p.b.PI(target, data)
	p.advance(idx + 2)
	return nil
}

func (p *parser) startTag() error {
	p.advance(1) // '<'
	name, err := p.readName()
	if err != nil {
		return p.errf("malformed start tag")
	}
	if p.depth == 0 {
		if p.sawRoot {
			return p.errf("multiple root elements: second root <%s>", name)
		}
		p.sawRoot = true
	}
	p.b.StartElement(name)
	p.depth++
	p.stack = append(p.stack, name)

	seen := map[string]bool{}
	for {
		p.skipSpace()
		if p.eof() {
			return p.errf("unterminated start tag <%s>", name)
		}
		switch p.data[p.pos] {
		case '>':
			p.advance(1)
			return nil
		case '/':
			if err := p.expect("/>"); err != nil {
				return err
			}
			p.b.EndElement()
			p.depth--
			p.stack = p.stack[:len(p.stack)-1]
			return nil
		}
		attName, err := p.readName()
		if err != nil {
			return p.errf("malformed attribute in <%s>", name)
		}
		if seen[attName] {
			return p.errf("duplicate attribute %q in <%s>", attName, name)
		}
		seen[attName] = true
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return err
		}
		p.skipSpace()
		val, err := p.attValue()
		if err != nil {
			return err
		}
		p.b.Attr(attName, val)
	}
}

func (p *parser) attValue() (string, error) {
	if p.eof() || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
		return "", p.errf("attribute value must be quoted")
	}
	quote := p.data[p.pos]
	p.advance(1)
	start := p.pos
	for !p.eof() && p.data[p.pos] != quote {
		if p.data[p.pos] == '<' {
			return "", p.errf("'<' not allowed in attribute value")
		}
		p.advance(1)
	}
	if p.eof() {
		return "", p.errf("unterminated attribute value")
	}
	raw := string(p.data[start:p.pos])
	p.advance(1)
	return p.decodeEntities(raw, true)
}

func (p *parser) endTag() error {
	p.advance(2)
	name, err := p.readName()
	if err != nil {
		return p.errf("malformed end tag")
	}
	p.skipSpace()
	if err := p.expect(">"); err != nil {
		return err
	}
	if p.depth == 0 {
		return p.errf("end tag </%s> without open element", name)
	}
	open := p.stack[len(p.stack)-1]
	if open != name {
		return p.errf("end tag </%s> does not match <%s>", name, open)
	}
	p.b.EndElement()
	p.depth--
	p.stack = p.stack[:len(p.stack)-1]
	return nil
}

func (p *parser) text() error {
	start := p.pos
	for !p.eof() && p.data[p.pos] != '<' {
		if p.data[p.pos] == '>' && p.pos >= start+2 && p.data[p.pos-1] == ']' && p.data[p.pos-2] == ']' {
			return p.errf("']]>' not allowed in character data")
		}
		p.advance(1)
	}
	// End-of-line handling applies to the raw text, so a character
	// reference &#13; still yields a carriage return.
	raw := normalizeNewlines(string(p.data[start:p.pos]))
	decoded, err := p.decodeEntities(raw, false)
	if err != nil {
		return err
	}
	if p.depth == 0 {
		if strings.TrimLeft(decoded, " \t\r\n") != "" {
			return p.errf("character data outside the root element")
		}
		return nil // ignorable whitespace between top-level constructs
	}
	if p.opts.DropWhitespaceText && strings.TrimLeft(decoded, " \t\r\n") == "" {
		return nil
	}
	p.b.Text(decoded)
	return nil
}

// normalizeNewlines applies XML end-of-line handling: CRLF and lone CR
// become LF.
func normalizeNewlines(s string) string {
	if !strings.Contains(s, "\r") {
		return s
	}
	s = strings.ReplaceAll(s, "\r\n", "\n")
	return strings.ReplaceAll(s, "\r", "\n")
}

// decodeEntities expands the five predefined entities and numeric character
// references. In attribute values, tabs/newlines are normalised to spaces
// per the XML attribute-value normalisation rules.
func (p *parser) decodeEntities(s string, inAttr bool) (string, error) {
	if !strings.ContainsAny(s, "&\t\n\r") {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if inAttr && (c == '\t' || c == '\n' || c == '\r') {
			sb.WriteByte(' ')
			if c == '\r' && i+1 < len(s) && s[i+1] == '\n' {
				i++
			}
			i++
			continue
		}
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi == 1 {
			return "", p.errf("malformed entity reference")
		}
		ent := s[i+1 : i+semi]
		switch {
		case ent == "amp":
			sb.WriteByte('&')
		case ent == "lt":
			sb.WriteByte('<')
		case ent == "gt":
			sb.WriteByte('>')
		case ent == "quot":
			sb.WriteByte('"')
		case ent == "apos":
			sb.WriteByte('\'')
		case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
			r, err := parseCharRef(ent[2:], 16)
			if err != nil {
				return "", p.errf("bad character reference &%s;", ent)
			}
			sb.WriteRune(r)
		case strings.HasPrefix(ent, "#"):
			r, err := parseCharRef(ent[1:], 10)
			if err != nil {
				return "", p.errf("bad character reference &%s;", ent)
			}
			sb.WriteRune(r)
		default:
			return "", p.errf("unknown entity &%s;", ent)
		}
		i += semi + 1
	}
	return sb.String(), nil
}

func parseCharRef(digits string, base int32) (rune, error) {
	if digits == "" {
		return 0, fmt.Errorf("empty")
	}
	var v int64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d int32
		switch {
		case c >= '0' && c <= '9':
			d = int32(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int32(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int32(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", c)
		}
		v = v*int64(base) + int64(d)
		if v > 0x10FFFF {
			return 0, fmt.Errorf("out of range")
		}
	}
	if v == 0 || (v >= 0xD800 && v <= 0xDFFF) {
		return 0, fmt.Errorf("invalid code point")
	}
	return rune(v), nil
}
