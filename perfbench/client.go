package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// client is one HTTP connection's worth of soxqd client. Each workload uses
// at most two: the reader's and, in annotate-mixed, the writer's.
type client struct {
	base string
	hc   *http.Client
	buf  []byte // row decode scratch
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one read's outcome as the client saw it.
type reply struct {
	got      answer
	bytes    int64
	firstRow time.Duration // request sent -> first row read
	latency  time.Duration // request sent -> trailer read
}

func queryURL(base string, t template, query string) string {
	v := url.Values{"q": {query}, "format": {t.format}, "parallel": {"0"}}
	if t.corpus != "" {
		v.Set("corpus", t.corpus)
	}
	if t.cache {
		v.Set("cache", "1")
	}
	return base + "/query?" + v.Encode()
}

// query sends one read and digests its rows as they stream in. A response
// that is not 200, lacks its trailer, or reports an error in it fails.
func (c *client) query(t template, query string) (reply, error) {
	var rep reply
	start := time.Now()
	resp, err := c.hc.Get(queryURL(c.base, t, query))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	h := uint64(fnvOffset)
	rows := 0
	done, header := false, false
	trailerRows := -1
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A row longer than the buffer: assemble it.
			long := append([]byte(nil), line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil {
			if err == io.EOF && len(line) == 0 {
				break
			}
			return rep, fmt.Errorf("reading response: %v", err)
		}
		rep.bytes += int64(len(line))
		if done {
			return rep, fmt.Errorf("data after the trailer: %q", line)
		}
		body := line[:len(line)-1]
		if t.format == "xml" {
			switch {
			case !header:
				if string(body) != "<results>" {
					return rep, fmt.Errorf("XML response starts %q, want <results>", body)
				}
				header = true
			case string(body) == "</results>":
				done = true
			case bytes.HasPrefix(body, []byte("<error>")):
				return rep, fmt.Errorf("stream error: %s", body)
			default:
				if rows == 0 {
					rep.firstRow = time.Since(start)
				}
				h = fnvAdd(h, line)
				rows++
			}
			continue
		}
		row, ok := c.ndjsonRow(body)
		if !ok {
			var tr struct {
				Done  bool   `json:"done"`
				Rows  int    `json:"rows"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &tr); err != nil {
				return rep, fmt.Errorf("bad NDJSON line %q: %v", body, err)
			}
			if tr.Error != "" || !tr.Done {
				return rep, fmt.Errorf("stream error after %d rows: %s", tr.Rows, tr.Error)
			}
			done, trailerRows = true, tr.Rows
			continue
		}
		if rows == 0 {
			rep.firstRow = time.Since(start)
		}
		h = fnvAdd(h, row)
		h = fnvAdd(h, []byte{'\n'})
		rows++
	}
	rep.latency = time.Since(start)
	if !done {
		return rep, fmt.Errorf("truncated response: no trailer after %d rows", rows)
	}
	if trailerRows >= 0 && trailerRows != rows {
		return rep, fmt.Errorf("trailer says %d rows, read %d", trailerRows, rows)
	}
	if rows == 0 {
		rep.firstRow = rep.latency
	}
	rep.got = answer{rows: rows, digest: h}
	return rep, nil
}

// ndjsonRow decodes a {"xml":"..."} row line, reusing c.buf. Lines of any
// other shape (the trailer) report false.
func (c *client) ndjsonRow(line []byte) ([]byte, bool) {
	const prefix = `{"xml":"`
	if !bytes.HasPrefix(line, []byte(prefix)) || !bytes.HasSuffix(line, []byte(`"}`)) {
		return nil, false
	}
	s := line[len(prefix) : len(line)-2]
	if bytes.IndexByte(s, '\\') < 0 {
		return s, true
	}
	if out, ok := unescapeJSON(c.buf[:0], s); ok {
		c.buf = out
		return out, true
	}
	// Escapes the fast path does not decode: let encoding/json do it.
	var row struct {
		XML *string `json:"xml"`
	}
	if json.Unmarshal(line, &row) != nil || row.XML == nil {
		return nil, false
	}
	return []byte(*row.XML), true
}

// unescapeJSON appends the decoded JSON string body s to out; false for an
// escape it does not handle.
func unescapeJSON(out, s []byte) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b != '\\' {
			out = append(out, b)
			continue
		}
		i++
		if i >= len(s) {
			return nil, false
		}
		switch s[i] {
		case '"', '\\', '/':
			out = append(out, s[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 >= len(s) {
				return nil, false
			}
			v, err := strconv.ParseUint(string(s[i+1:i+5]), 16, 32)
			if err != nil || utf16.IsSurrogate(rune(v)) {
				return nil, false
			}
			out = utf8.AppendRune(out, rune(v))
			i += 4
		default:
			return nil, false
		}
	}
	return out, true
}

// annotate sends one annotation write and checks the server applied it.
func (c *client) annotate(docName string, w write) error {
	op := "delete"
	if w.insert {
		op = "insert"
	}
	body := fmt.Sprintf(`{"op":%q,"elem":"mark","start":%d,"end":%d}`, op, w.start, w.start+markWidth)
	resp, err := c.hc.Post(c.base+"/documents/"+docName+"/annotations", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s status %d: %s", op, resp.StatusCode, bytes.TrimSpace(b))
	}
	if !w.insert {
		var r struct {
			Removed int `json:"removed"`
		}
		if err := json.Unmarshal(b, &r); err != nil || r.Removed != 1 {
			return fmt.Errorf("delete at %d removed %d marks, want 1 (%s)", w.start, r.Removed, bytes.TrimSpace(b))
		}
	}
	return nil
}

// put sends a PUT with the given body and requires a 200.
func (c *client) put(path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// scrape is one reading of the server's ops surface: every unlabelled or
// labelled sample of /metrics by its full name, plus /healthz's admission
// counters.
type scrape map[string]float64

func (c *client) scrape() (scrape, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	s := scrape{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	hb, err := c.get("/healthz")
	if err != nil {
		return nil, err
	}
	var h struct {
		Admitted float64 `json:"admitted"`
		Rejected float64 `json:"rejected"`
	}
	if err := json.Unmarshal(hb, &h); err != nil {
		return nil, fmt.Errorf("decoding /healthz: %v", err)
	}
	s["healthz_admitted"] = h.Admitted
	s["healthz_rejected"] = h.Rejected
	return s, nil
}

// delta is after[name] - before[name].
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }
