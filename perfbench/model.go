package main

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
)

// answer is what a read must return: its row count and an order-sensitive
// digest of the rows (each row's XML followed by a newline).
type answer struct {
	rows   int
	digest uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds b into an FNV-1a digest.
func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// digestRows is the answer for a sequence of row strings.
func digestRows(rows []string) answer {
	h := uint64(fnvOffset)
	for _, r := range rows {
		h = fnvAddString(h, r)
		h = fnvAddString(h, "\n")
	}
	return answer{rows: len(rows), digest: h}
}

// write is one annotation write of annotate-mixed: insert a "mark" at
// [start, start+markWidth], or delete the mark there.
type write struct {
	insert bool
	start  int
}

// mark is one inserted annotation: the write that inserted it and the write
// that deleted it (-1 while alive).
type mark struct {
	start, ins, del int
}

// markModel is the writer's model of the annotated document: the issued
// write sequence and, for every prefix of it, what the reads must return.
// The writer issues writes one at a time on its own connection, so the
// server's state is always some prefix of the sequence; a read is correct
// when it matches the prefix of some length between the writes acknowledged
// before it was sent and the writes issued before its response ended.
type markModel struct {
	mu      sync.Mutex
	rng     *rand.Rand
	writes  []write
	acked   int
	marks   []mark
	alive   map[int]int // start -> index into marks
	live    []int       // indices of alive marks, for picking deletes
	byScene [bigScenes][]int
	countAt []int // contained alive marks after the first n writes
	// insertOnly makes every write an insert (the read-only workloads'
	// write probe).
	insertOnly bool
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newMarkModel(rng *rand.Rand) *markModel {
	return &markModel{rng: rng, alive: map[int]int{}, countAt: []int{0}}
}

func markContained(start int) bool { return start%bigSpan+markWidth <= bigSpan-1 }

// next draws and records the next write: 10% deletes of an alive mark, 90%
// inserts at a seeded position no alive mark occupies (all inserts when
// insertOnly).
func (m *markModel) next() write {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.writes)
	count := m.countAt[n]
	var w write
	if !m.insertOnly && len(m.live) > 0 && m.rng.Intn(10) == 0 {
		i := m.rng.Intn(len(m.live))
		idx := m.live[i]
		m.live[i] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		mk := &m.marks[idx]
		mk.del = n
		delete(m.alive, mk.start)
		w = write{insert: false, start: mk.start}
		if markContained(mk.start) {
			count--
		}
	} else {
		p := m.rng.Intn(bigScenes*bigSpan - markWidth)
		for {
			if _, taken := m.alive[p]; !taken {
				break
			}
			p = m.rng.Intn(bigScenes*bigSpan - markWidth)
		}
		idx := len(m.marks)
		m.marks = append(m.marks, mark{start: p, ins: n, del: -1})
		m.alive[p] = idx
		m.live = append(m.live, idx)
		if markContained(p) {
			scene := p / bigSpan
			m.byScene[scene] = append(m.byScene[scene], idx)
			count++
		}
		w = write{insert: true, start: p}
	}
	m.writes = append(m.writes, w)
	m.countAt = append(m.countAt, count)
	return w
}

func (m *markModel) ack() {
	m.mu.Lock()
	m.acked++
	m.mu.Unlock()
}

// bounds returns (acknowledged, issued) write counts.
func (m *markModel) bounds() (acked, issued int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acked, len(m.writes)
}

func markXML(start int) string {
	return `<mark start="` + strconv.Itoa(start) + `" end="` + strconv.Itoa(start+markWidth) + `"/>`
}

// expect is the answer of read r over the first n writes.
func (m *markModel) expect(r request, n int) answer {
	if r.tpl != 1 {
		return digestRows([]string{strconv.Itoa(m.countAt[n])})
	}
	var idx []int
	for s := r.windowLo; s < r.windowHi; s++ {
		for _, i := range m.byScene[s] {
			if mk := m.marks[i]; mk.ins < n && (mk.del < 0 || mk.del >= n) {
				idx = append(idx, i)
			}
		}
	}
	// Inserted annotations append under the root element, so document
	// order is insertion order.
	slices.Sort(idx)
	rows := make([]string, len(idx))
	for j, i := range idx {
		rows[j] = markXML(m.marks[i].start)
	}
	return digestRows(rows)
}

// check reports whether got is the answer of r over some prefix of n writes
// with lo <= n <= hi.
func (m *markModel) check(r request, lo, hi int, got answer) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for n := lo; n <= hi; n++ {
		if m.expect(r, n) == got {
			return true
		}
	}
	return false
}
