package main

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"soxq"
)

// serverConfig tunes the corpus server's admission control and per-query
// resource budget.
type serverConfig struct {
	// MaxQueries is the number of queries allowed to execute concurrently.
	// Queries beyond it wait up to QueueTimeout for a slot, then get 503.
	MaxQueries int
	// QueueTimeout is how long an over-limit query waits for a slot.
	QueueTimeout time.Duration
	// MaxChunk caps the per-query stream chunk (Config.StreamChunk): the
	// server's memory budget per query is proportional to chunk x parallel
	// workers, so requests asking for a larger chunk are clamped here.
	MaxChunk int
	// MaxParallel caps the per-query worker count a request may ask for.
	MaxParallel int
	// DefaultParallel is the shard/loop parallelism used when a request
	// does not pass an explicit parallel parameter.
	DefaultParallel int
}

func (c serverConfig) withDefaults() serverConfig {
	if c.MaxQueries <= 0 {
		c.MaxQueries = 16
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxChunk <= 0 {
		c.MaxChunk = 4096
	}
	if c.MaxParallel <= 0 {
		c.MaxParallel = 64
	}
	return c
}

// server is the soxqd HTTP surface over one Engine: catalog management
// (documents, corpora, annotations), streamed query execution, and the
// engine's ops endpoints, behind a bounded-concurrency admission gate.
type server struct {
	eng *soxq.Engine
	cfg serverConfig

	// sem holds one token per running query; acquisition is the admission
	// gate of handleQuery.
	sem      chan struct{}
	admitted atomic.Uint64
	rejected atomic.Uint64
	inflight atomic.Int64
}

func newServer(eng *soxq.Engine, cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	return &server{eng: eng, cfg: cfg, sem: make(chan struct{}, cfg.MaxQueries)}
}

// handler builds the route table. Catalog mutations are PUT/DELETE/POST on
// the resource they change; queries stream from GET or POST /query; the
// engine's ops surface (/metrics, /debug/...) mounts on the same mux so one
// listener serves both the data plane and the scrape plane.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /catalog", s.handleCatalog)
	mux.HandleFunc("PUT /documents/{name}", s.handlePutDocument)
	mux.HandleFunc("DELETE /documents/{name}", s.handleDeleteDocument)
	mux.HandleFunc("POST /documents/{name}/annotations", s.handleAnnotations)
	mux.HandleFunc("PUT /corpora/{name}", s.handlePutCorpus)
	mux.HandleFunc("DELETE /corpora/{name}", s.handleDeleteCorpus)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("POST /query", s.handleQuery)
	ops := s.eng.OpsHandler()
	mux.Handle("GET /metrics", ops)
	mux.Handle("GET /debug/", ops)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": s.eng.CatalogGeneration(),
		"inflight":   s.inflight.Load(),
		"admitted":   s.admitted.Load(),
		"rejected":   s.rejected.Load(),
	})
}

// catalogEntry is one corpus in the catalog listing.
type catalogEntry struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

func (s *server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	corpora := []catalogEntry{}
	for _, name := range s.eng.Corpora() {
		members, err := s.eng.CorpusMembers(name)
		if err != nil {
			continue // dropped between the two calls; the generation shows it
		}
		corpora = append(corpora, catalogEntry{Name: name, Members: members})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": s.eng.CatalogGeneration(),
		"documents":  s.eng.Documents(),
		"corpora":    corpora,
	})
}

// maxDocumentBytes bounds a PUT /documents body; parse errors come from the
// engine, this guard only stops unbounded uploads from buffering in memory.
const maxDocumentBytes = 64 << 20

func (s *server) handlePutDocument(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDocumentBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading document body: %v", err)
		return
	}
	if err := s.eng.LoadXML(name, data); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"document":   name,
		"generation": s.eng.CatalogGeneration(),
	})
}

func (s *server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !slices.Contains(s.eng.Documents(), name) {
		writeError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	s.eng.Unload(name)
	writeJSON(w, http.StatusOK, map[string]any{
		"document":   name,
		"generation": s.eng.CatalogGeneration(),
	})
}

// annotationRequest is the body of POST /documents/{name}/annotations: an
// insert (elem + one or more regions) or a delete (elem + the exact region).
type annotationRequest struct {
	Op      string `json:"op"`
	Elem    string `json:"elem"`
	Regions []struct {
		Start int64 `json:"start"`
		End   int64 `json:"end"`
	} `json:"regions"`
	Start *int64 `json:"start"`
	End   *int64 `json:"end"`
}

func (s *server) handleAnnotations(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !slices.Contains(s.eng.Documents(), name) {
		writeError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	var req annotationRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding annotation request: %v", err)
		return
	}
	switch req.Op {
	case "insert":
		regions := make([]soxq.Region, 0, len(req.Regions)+1)
		for _, reg := range req.Regions {
			regions = append(regions, soxq.Region{Start: reg.Start, End: reg.End})
		}
		if len(regions) == 0 && req.Start != nil && req.End != nil {
			regions = append(regions, soxq.Region{Start: *req.Start, End: *req.End})
		}
		if err := s.eng.InsertAnnotation(name, req.Elem, regions...); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"generation": s.eng.CatalogGeneration(),
		})
	case "delete":
		if req.Start == nil || req.End == nil {
			writeError(w, http.StatusBadRequest, "delete needs start and end")
			return
		}
		n, err := s.eng.DeleteAnnotation(name, req.Elem, *req.Start, *req.End)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"removed":    n,
			"generation": s.eng.CatalogGeneration(),
		})
	default:
		writeError(w, http.StatusBadRequest, "unknown op %q (want insert or delete)", req.Op)
	}
}

func (s *server) handlePutCorpus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding corpus request: %v", err)
		return
	}
	if err := s.eng.CreateCorpus(name, req.Members...); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":     name,
		"members":    req.Members,
		"generation": s.eng.CatalogGeneration(),
	})
}

func (s *server) handleDeleteCorpus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.eng.DropCorpus(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":     name,
		"generation": s.eng.CatalogGeneration(),
	})
}

// admit acquires a query slot: immediately if one is free, otherwise by
// waiting up to QueueTimeout. The false return is the 503 path. The
// release func must be called exactly once when the query finishes.
func (s *server) admit(r *http.Request) (release func(), ok bool) {
	acquired := func() func() {
		s.admitted.Add(1)
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return acquired(), true
	default:
	}
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return acquired(), true
	case <-t.C:
	case <-r.Context().Done():
	}
	s.rejected.Add(1)
	return nil, false
}

// queryText extracts the query: the q form/URL parameter, or — for POSTs
// whose body is not a form — the raw request body.
func queryText(r *http.Request) string {
	if q := r.FormValue("q"); q != "" {
		return q
	}
	if r.Method == http.MethodPost {
		ct := r.Header.Get("Content-Type")
		if !strings.HasPrefix(ct, "application/x-www-form-urlencoded") && !strings.HasPrefix(ct, "multipart/") {
			b, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			return strings.TrimSpace(string(b))
		}
	}
	return ""
}

// intParam parses an integer query parameter, returning def when absent.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.FormValue(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

// handleQuery runs one query and streams the result. Parameters:
//
//	q         the query text (or the POST body)
//	corpus    fan the query out across this corpus (optional)
//	format    ndjson (default) or xml
//	parallel  shard/loop workers for this query (clamped to -max-parallel)
//	chunk     stream chunk size — the per-query memory budget knob,
//	          clamped to the server's -chunk ceiling
//	cache     cache=1 serves a corpus query from the engine's result cache
//	          (materialised; hits skip execution entirely)
//
// Results stream as they are produced: NDJSON emits one {"xml":...} object
// per item and a trailing {"done":true,"rows":N} (or {"error":...}) record;
// XML wraps the items in a <results> element. The response status is
// committed before execution finishes, so mid-stream failures surface in
// the stream's trailer, not the status code.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := queryText(r)
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query: pass q= or a POST body")
		return
	}
	corpus := r.FormValue("corpus")
	format := r.FormValue("format")
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "xml" {
		writeError(w, http.StatusBadRequest, "unknown format %q (want ndjson or xml)", format)
		return
	}
	parallel, err := intParam(r, "parallel", s.cfg.DefaultParallel)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	parallel = min(parallel, s.cfg.MaxParallel)
	chunk, err := intParam(r, "chunk", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if chunk <= 0 {
		chunk = 1024
	}
	chunk = min(chunk, s.cfg.MaxChunk)
	useCache := r.FormValue("cache") == "1"
	if useCache && corpus == "" {
		writeError(w, http.StatusBadRequest, "cache=1 applies to corpus queries only")
		return
	}

	release, ok := s.admit(r)
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "query capacity exhausted, retry later")
		return
	}
	defer release()

	cfg := soxq.Config{Parallelism: parallel, StreamChunk: chunk}
	if useCache {
		res, err := s.eng.QueryCorpus(q, corpus, cfg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.writeResult(w, format, res)
		return
	}
	var cur *soxq.Cursor
	if corpus != "" {
		cur, err = s.eng.StreamQueryCorpus(q, corpus, cfg)
	} else {
		cur, err = s.eng.StreamQuery(q, cfg)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cur.Close()
	s.writeStream(w, r, format, cur)
}

// flushEvery is how many rows a streamed response buffers before an explicit
// flush — frequent enough that a slowly-produced stream reaches the client
// incrementally, rare enough not to defeat response buffering.
const flushEvery = 64

type ndjsonTrailer struct {
	Done  bool   `json:"done,omitempty"`
	Rows  int    `json:"rows"`
	Error string `json:"error,omitempty"`
}

// writeStream drains the cursor into the response. Client disconnects are
// detected through the request context and write failures; either way the
// drain stops and the deferred Close in the caller tears the pipeline down.
func (s *server) writeStream(w http.ResponseWriter, r *http.Request, format string, cur *soxq.Cursor) {
	ctx := r.Context()
	rw := newRowWriter(w, format)
	for cur.Next() {
		if ctx.Err() != nil || !rw.add(cur.Value()) {
			return // client gone; nothing sensible left to write
		}
	}
	rw.finish(cur.Err())
}

// writeResult writes a materialised (cached) result through the same row
// encoder as writeStream, so clients need not care which path served them.
func (s *server) writeResult(w http.ResponseWriter, format string, res *soxq.Result) {
	rw := newRowWriter(w, format)
	for i := 0; i < res.Len(); i++ {
		if !rw.add(res.Value(i)) {
			return
		}
	}
	rw.finish(nil)
}

// writeChunk is the buffered byte count at which rows go to the
// ResponseWriter between flushes, so a response with large rows holds about
// writeChunk bytes plus one row rather than flushEvery rows.
const writeChunk = 4 << 10

// rowWriter encodes a query response: every row is appended to one
// per-response buffer, which goes to the client every flushEvery rows
// followed by a Flush, and in between whenever it holds writeChunk bytes.
type rowWriter struct {
	w      http.ResponseWriter
	xmlOut bool
	buf    []byte // encoded rows not yet written
	xml    []byte // the current row's markup, before JSON escaping
	rows   int
}

func newRowWriter(w http.ResponseWriter, format string) *rowWriter {
	rw := &rowWriter{w: w, xmlOut: format == "xml"}
	if rw.xmlOut {
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		rw.buf = append(rw.buf, "<results>\n"...)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	return rw
}

// add encodes one row. It reports false once a write has failed, i.e. the
// client is gone.
func (rw *rowWriter) add(v soxq.Value) bool {
	if rw.xmlOut {
		rw.buf = append(v.AppendXML(rw.buf), '\n')
	} else {
		rw.xml = v.AppendXML(rw.xml[:0])
		rw.buf = appendNDJSONRow(rw.buf, rw.xml)
	}
	rw.rows++
	flush := rw.rows%flushEvery == 0
	if !flush && len(rw.buf) < writeChunk {
		return true
	}
	if _, err := rw.w.Write(rw.buf); err != nil {
		return false
	}
	rw.buf = rw.buf[:0]
	if f, ok := rw.w.(http.Flusher); flush && ok {
		f.Flush()
	}
	return true
}

// finish writes the rows still buffered, then the trailer: the error record
// when err is non-nil, else the end of the stream. Either way the trailer
// counts every row the client received.
func (rw *rowWriter) finish(err error) {
	if _, werr := rw.w.Write(rw.buf); werr != nil {
		return
	}
	switch {
	case err != nil && rw.xmlOut:
		var b strings.Builder
		xml.EscapeText(&b, []byte(err.Error()))
		fmt.Fprintf(rw.w, "<error>%s</error>\n</results>\n", b.String())
	case err != nil:
		json.NewEncoder(rw.w).Encode(ndjsonTrailer{Rows: rw.rows, Error: err.Error()})
	case rw.xmlOut:
		io.WriteString(rw.w, "</results>\n")
	default:
		json.NewEncoder(rw.w).Encode(ndjsonTrailer{Done: true, Rows: rw.rows})
	}
}

// appendNDJSONRow appends the NDJSON row carrying the markup xml: the bytes
// json.Encoder.Encode writes for a struct with one field `json:"xml"`
// holding string(xml).
func appendNDJSONRow(dst, xml []byte) []byte {
	dst = appendJSONString(append(dst, `{"xml":`...), xml)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string literal, byte for byte what
// encoding/json's default encoder writes: short escapes for the quote,
// backslash, \b \f \n \r \t, \u00XX for other control bytes and for the
// HTML-sensitive < > &, \u2028/\u2029, and \ufffd for each invalid UTF-8
// byte.
func appendJSONString(dst, s []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
