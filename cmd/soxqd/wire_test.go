package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"soxq"
)

// ndjsonRow is the reference shape of an NDJSON data row.
type ndjsonRow struct {
	XML string `json:"xml"`
}

// encodingJSONRow is the reference for appendNDJSONRow: what encoding/json's
// default encoder writes for one row.
func encodingJSONRow(t testing.TB, s []byte) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ndjsonRow{XML: string(s)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonAlphabet holds every byte class encoding/json treats specially:
// HTML-sensitive and quoting characters, short and \u00XX control escapes,
// U+2028/U+2029, multi-byte runes, stray and truncated UTF-8.
var jsonAlphabet = []string{
	"a", "Z", "0", " ", "/", "'", "\x7f",
	"<", ">", "&", `"`, `\`,
	"\n", "\r", "\t", "\b", "\f", "\x00", "\x01", "\x1f",
	"é", "☃", "😀", "\u2028", "\u2029", "\ufffd",
	"\xff", "\x80", "\xc3", "\xe2\x82", "\xf0\x9f\x98", "\xed\xa0\x80",
}

// TestAppendJSONStringMatchesEncodingJSON: over seeded random strings from
// jsonAlphabet, the row line appendNDJSONRow builds is byte-equal to
// encoding/json's.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		var s []byte
		for k := r.Intn(16); k > 0; k-- {
			s = append(s, jsonAlphabet[r.Intn(len(jsonAlphabet))]...)
		}
		want := encodingJSONRow(t, s)
		if got := appendNDJSONRow(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("row for %q:\n got %q\nwant %q", s, got, want)
		}
	}
}

// FuzzAppendJSONString checks the same property on arbitrary bytes.
func FuzzAppendJSONString(f *testing.F) {
	for _, seed := range []string{"", `<e a="x&amp;">t</e>`, "\x00\x1f\b\f\n\r\t", "é\u2028\u2029😀", "\xff\xc3\xe2\x82", `"\`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		want := encodingJSONRow(t, s)
		if got := appendNDJSONRow([]byte("prev\n"), s); !bytes.Equal(got, append([]byte("prev\n"), want...)) {
			t.Fatalf("row for %q:\n got %q\nwant %q", s, got, want)
		}
	})
}

// wireDoc's text and attribute values hold every character either wire
// format escapes: markup characters, quotes, tab, newline, carriage return,
// U+2028 and non-ASCII.
const wireDoc = `<doc><e a="x&lt;&amp;&gt;&quot;y&#9;t&#10;n é">t &lt;&amp;&gt; "q"	tab
nl é ☃ 😀 &#x2028; &#13;</e><e a="plain">plain</e></doc>`

// wireQuery returns element, attribute and atomic rows.
const wireQuery = `for $e in doc("%s")//e return ($e, $e/@a, string($e))`

// TestServerWireGolden pins both response formats byte for byte against
// bodies built with encoding/json and Value.XML, for the streamed corpus
// path, the cached corpus path and the single-document path alike.
func TestServerWireGolden(t *testing.T) {
	eng := soxq.New()
	if err := eng.LoadXML("wire.xml", []byte(wireDoc)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateCorpus("wire", "wire.xml"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, serverConfig{}).handler())
	defer ts.Close()

	res, err := eng.Query(strings.ReplaceAll(wireQuery, "%s", "wire.xml"))
	if err != nil {
		t.Fatal(err)
	}
	var ndjson, xmlBody bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	xmlBody.WriteString("<results>\n")
	for _, v := range res.Values() {
		enc.Encode(ndjsonRow{XML: v.XML()})
		xmlBody.WriteString(v.XML() + "\n")
	}
	enc.Encode(ndjsonTrailer{Done: true, Rows: res.Len()})
	xmlBody.WriteString("</results>\n")
	// The first row literally, so the golden does not rest on Value.XML
	// alone.
	const firstRow = `{"xml":"\u003ce a=\"x\u0026lt;\u0026amp;\u0026gt;\u0026quot;y\u0026#9;t\u0026#10;n é\"\u003et \u0026lt;\u0026amp;\u0026gt; \"q\"\ttab\nnl é ☃ 😀 \u2028 \u0026#13;\u003c/e\u003e"}` + "\n"
	if !strings.HasPrefix(ndjson.String(), firstRow) {
		t.Fatalf("encoding/json first row %q, want %q", strings.SplitAfter(ndjson.String(), "\n")[0], firstRow)
	}

	for _, path := range []string{
		"corpus=wire&q=" + queryParam(strings.ReplaceAll(wireQuery, "%s", "wire")),
		"corpus=wire&cache=1&q=" + queryParam(strings.ReplaceAll(wireQuery, "%s", "wire")),
		"q=" + queryParam(strings.ReplaceAll(wireQuery, "%s", "wire.xml")),
	} {
		for _, f := range []struct {
			format, contentType string
			want                []byte
		}{
			{"ndjson", "application/x-ndjson", ndjson.Bytes()},
			{"xml", "application/xml; charset=utf-8", xmlBody.Bytes()},
		} {
			resp, err := http.Get(ts.URL + "/query?format=" + f.format + "&" + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != f.contentType {
				t.Errorf("%s %s: Content-Type %q, want %q", f.format, path, ct, f.contentType)
			}
			if !bytes.Equal(body, f.want) {
				t.Errorf("%s %s:\n got %q\nwant %q", f.format, path, body, f.want)
			}
		}
	}
}

// TestServerMidStreamError: a query failing after more than 2×flushEvery
// rows delivers every row it produced, then the error trailer, whose row
// count equals the rows the client received.
func TestServerMidStreamError(t *testing.T) {
	_, _, ts := newTestServer(t, 1, serverConfig{})
	q := queryParam(`for $i in 1 to 1000 return if ($i = 300) then error("boom <&>") else $i`)
	get := func(format string) string {
		t.Helper()
		code, body := doReq(t, http.MethodGet, ts.URL+"/query?chunk=16&format="+format+"&q="+q, nil)
		if code != 200 {
			t.Fatalf("%s: status %d: %s", format, code, body)
		}
		return string(body)
	}

	rows, trailer, err := parseNDJSON(strings.NewReader(get("ndjson")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) <= 2*flushEvery {
		t.Fatalf("only %d rows before the error, want more than %d", len(rows), 2*flushEvery)
	}
	for i, row := range rows {
		if row != strconv.Itoa(i+1) {
			t.Fatalf("row %d = %q", i, row)
		}
	}
	if trailer.Done || trailer.Rows != len(rows) || !strings.Contains(trailer.Error, "boom <&>") {
		t.Fatalf("trailer %+v after %d rows", trailer, len(rows))
	}

	var want strings.Builder
	want.WriteString("<results>\n")
	for _, row := range rows {
		want.WriteString(row + "\n")
	}
	want.WriteString("<error>")
	xml.EscapeText(&want, []byte(trailer.Error))
	want.WriteString("</error>\n</results>\n")
	if got := get("xml"); got != want.String() {
		t.Fatalf("XML body:\n got %q\nwant %q", got, want.String())
	}
}

// discardResponse is an http.ResponseWriter that only counts body lines and
// records the largest single write.
type discardResponse struct {
	header   http.Header
	lines    lineCounter
	maxWrite int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Flush()              {}

func (d *discardResponse) Write(p []byte) (int, error) {
	d.maxWrite = max(d.maxWrite, len(p))
	return d.lines.Write(p)
}

// TestServerLargeRowsWrittenEarly: rows much larger than writeChunk/flushEvery
// go to the ResponseWriter once writeChunk bytes are buffered, not only every
// flushEvery rows, so a response's buffer stays near writeChunk plus one row.
func TestServerLargeRowsWrittenEarly(t *testing.T) {
	eng := soxq.New()
	row := "<e>" + strings.Repeat("x", 2000) + "</e>"
	if err := eng.LoadXML("big.xml", []byte("<d>"+strings.Repeat(row, 3*flushEvery)+"</d>")); err != nil {
		t.Fatal(err)
	}
	h := newServer(eng, serverConfig{}).handler()
	for _, format := range []string{"ndjson", "xml"} {
		w := &discardResponse{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query?format="+format+"&q="+queryParam(`doc("big.xml")//e`), nil))
		if w.lines < 3*flushEvery {
			t.Fatalf("%s: %d lines, want at least %d", format, w.lines, 3*flushEvery)
		}
		if limit := writeChunk + 2*len(row); w.maxWrite > limit {
			t.Errorf("%s: a single write of %d bytes, want at most %d", format, w.maxWrite, limit)
		}
	}
}

// TestServerNDJSONAllocsPerRow guards the append-style encoder: one warm
// in-process NDJSON round trip over the bench corpus allocates less than
// 0.1 times per row. Encoding through a string per row plus a json.Encoder
// costs several allocations per row, so any per-row allocation fails here.
func TestServerNDJSONAllocsPerRow(t *testing.T) {
	h := newBenchServer(t).handler()
	const rows = benchDocs * benchRowsPerMember
	var failed string
	perRun := testing.AllocsPerRun(3, func() {
		w := &discardResponse{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query?corpus=bench&q="+queryParam(benchQuery), nil))
		if w.lines != rows+1 {
			failed = "got " + strconv.Itoa(int(w.lines)) + " lines, want " + strconv.Itoa(rows+1)
		}
	})
	if failed != "" {
		t.Fatal(failed)
	}
	t.Logf("%.0f allocations for %d rows", perRun, rows)
	if perRow := perRun / rows; perRow >= 0.1 {
		t.Errorf("NDJSON round trip allocated %.0f times for %d rows (%.3f per row), budget 0.1 per row", perRun, rows, perRow)
	}
}
