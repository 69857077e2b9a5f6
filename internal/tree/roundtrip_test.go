package tree_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// escapeDoc drives random document construction whose text and attribute
// values draw on every character the serializer escapes.
type escapeDoc struct {
	Seed int64
}

// Generate implements quick.Generator.
func (escapeDoc) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(escapeDoc{Seed: r.Int63()})
}

// valueAlphabet mixes plain characters with every escaped one. Comments and
// PIs take only the plain part: their content is written verbatim.
var valueAlphabet = []string{"a", "b", " ", "é", "☃", "&", "<", ">", `"`, "'", "\t", "\n", "\r"}

const plainAlphabet = 5

func randValue(r *rand.Rand, alphabet int) string {
	var b []byte
	for n := r.Intn(8); n > 0; n-- {
		b = append(b, valueAlphabet[r.Intn(alphabet)]...)
	}
	return string(b)
}

func (s escapeDoc) build() (*tree.Doc, error) {
	r := rand.New(rand.NewSource(s.Seed))
	b := tree.NewBuilder("escape.xml")
	names := []string{"a", "b", "c"}
	b.StartElement("root")
	depth := 1
	for n := 1 + r.Intn(60); n > 0; n-- {
		switch r.Intn(6) {
		case 0, 1:
			b.StartElement(names[r.Intn(len(names))])
			for k := r.Intn(3); k > 0; k-- {
				b.Attr(names[k], randValue(r, len(valueAlphabet)))
			}
			depth++
		case 2:
			if depth > 1 {
				b.EndElement()
				depth--
			}
		case 3:
			b.Text(randValue(r, len(valueAlphabet)))
		case 4:
			b.Comment(randValue(r, plainAlphabet))
		case 5:
			b.PI(names[r.Intn(len(names))], randValue(r, 2))
		}
	}
	for ; depth > 0; depth-- {
		b.EndElement()
	}
	return b.Done()
}

// sameTree reports whether a and b agree node for node: kinds, names, sizes,
// values and attributes.
func sameTree(a, b *tree.Doc) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for pre := int32(0); pre < int32(a.NumNodes()); pre++ {
		if a.Kind(pre) != b.Kind(pre) || a.NodeName(pre) != b.NodeName(pre) ||
			a.Size(pre) != b.Size(pre) || !bytes.Equal(a.ValueBytes(pre), b.ValueBytes(pre)) {
			return false
		}
		alo, ahi := a.Attrs(pre)
		blo, bhi := b.Attrs(pre)
		if ahi-alo != bhi-blo {
			return false
		}
		for i := int32(0); i < ahi-alo; i++ {
			if a.AttrName(alo+i) != b.AttrName(blo+i) || a.AttrValue(alo+i) != b.AttrValue(blo+i) {
				return false
			}
		}
	}
	return true
}

// TestQuickAppendXMLRoundTrip: for random documents whose values need every
// escape, parsing AppendXML's output yields the same tree, and serialising
// that tree again yields the same bytes.
func TestQuickAppendXMLRoundTrip(t *testing.T) {
	f := func(spec escapeDoc) bool {
		d, err := spec.build()
		if err != nil {
			t.Logf("seed %d: build: %v", spec.Seed, err)
			return false
		}
		out := d.AppendXML(nil, 0)
		d2, err := xmlparse.Parse("again.xml", out)
		if err != nil {
			t.Logf("seed %d: re-parse %q: %v", spec.Seed, out, err)
			return false
		}
		if !sameTree(d, d2) {
			t.Logf("seed %d: re-parsed tree differs for %q", spec.Seed, out)
			return false
		}
		return bytes.Equal(d2.AppendXML(nil, 0), out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
