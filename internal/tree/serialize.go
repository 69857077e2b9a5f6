package tree

import "unicode/utf8"

// AppendXML appends the XML markup of node pre (and its subtree) to dst and
// returns the extended slice. For the document node all children are written
// in order; attributes are emitted in stored order. Text content and
// attribute values are escaped so that the output re-parses to an identical
// tree.
func (d *Doc) AppendXML(dst []byte, pre int32) []byte {
	switch d.kind[pre] {
	case DocumentNode:
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			dst = d.AppendXML(dst, c)
		}
	case ElementNode:
		name := d.NodeName(pre)
		dst = append(append(dst, '<'), name...)
		lo, hi := d.Attrs(pre)
		for i := lo; i < hi; i++ {
			dst = d.AppendAttrXML(append(dst, ' '), i)
		}
		if d.Size(pre) == 0 {
			return append(dst, "/>"...)
		}
		dst = append(dst, '>')
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			dst = d.AppendXML(dst, c)
		}
		dst = append(append(dst, "</"...), name...)
		dst = append(dst, '>')
	case TextNode:
		dst = AppendEscapeText(dst, d.ValueBytes(pre))
	case CommentNode:
		dst = append(append(dst, "<!--"...), d.ValueBytes(pre)...)
		dst = append(dst, "-->"...)
	case PINode:
		dst = append(append(dst, "<?"...), d.NodeName(pre)...)
		if v := d.ValueBytes(pre); len(v) > 0 {
			dst = append(append(dst, ' '), v...)
		}
		dst = append(dst, "?>"...)
	}
	return dst
}

// AppendAttrXML appends attribute row i as name="value", the value escaped
// for a double-quoted attribute.
func (d *Doc) AppendAttrXML(dst []byte, i int32) []byte {
	dst = append(append(dst, d.AttrName(i)...), '=', '"')
	dst = AppendEscapeAttr(dst, d.AttrValueBytes(i))
	return append(dst, '"')
}

// XMLString renders node pre (and its subtree) as a string.
func (d *Doc) XMLString(pre int32) string { return string(d.AppendXML(nil, pre)) }

// AppendEscapeText appends s escaped as element character data. A value with
// nothing to escape is copied through unchanged.
func AppendEscapeText(dst, s []byte) []byte { return appendEscaped(dst, s, false) }

// AppendEscapeAttr appends s escaped for a double-quoted attribute value. A
// value with nothing to escape is copied through unchanged.
func AppendEscapeAttr(dst, s []byte) []byte { return appendEscaped(dst, s, true) }

// escapeFor returns the entity replacing byte c, or "" when c is kept as is.
// Attribute values also escape the quote and the whitespace that attribute
// value normalisation would otherwise fold to spaces.
func escapeFor(c byte, attr bool) string {
	switch c {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '\r':
		return "&#13;"
	}
	if attr {
		switch c {
		case '"':
			return "&quot;"
		case '\t':
			return "&#9;"
		case '\n':
			return "&#10;"
		}
	}
	return ""
}

// appendEscaped appends s with escapeFor's replacements. A value that needs
// escaping is re-encoded rune by rune, so invalid UTF-8 in it comes out as
// U+FFFD; one that needs none is copied byte for byte.
func appendEscaped(dst, s []byte, attr bool) []byte {
	clean := true
	for _, c := range s {
		if escapeFor(c, attr) != "" {
			clean = false
			break
		}
	}
	if clean {
		return append(dst, s...)
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if e := escapeFor(c, attr); e != "" {
				dst = append(dst, e...)
			} else {
				dst = append(dst, c)
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && n == 1 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		} else {
			dst = append(dst, s[i:i+n]...)
		}
		i += n
	}
	return dst
}
