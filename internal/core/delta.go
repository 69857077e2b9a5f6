package core

import (
	"sort"

	"soxq/internal/interval"
	"soxq/internal/tree"
)

// LSM-style write path for the region index.
//
// A freshly built RegionIndex is the *base* layer. Annotation inserts and
// deletes do not rebuild it: ApplyInsert/ApplyDelete derive a cheap wrapper
// index that records the mutation in sorted per-layer delta columns and keeps
// a pointer to the base. The first read materialises the wrapper by merging
// the delta into the base orderings — a columnar two-way merge over the
// struct-of-arrays region and bounds columns, after which the lazily built
// end-ordered permutation and watermark suffix-mins are delta-aware for free
// (they derive from the merged columns). Point lookups (IsArea/RegionsOf)
// never merge per-area geometry: they route tombstone → delta → base.
//
// Derivation must be linear: always derive from the newest index, under the
// engine's write lock (delta columns extend the parent's columns in place,
// beyond the parent's slice lengths — the same append-beyond-len snapshot
// discipline as tree.Appender). Readers of any layer are lock-free.
//
// Compact folds the deltas into a new base identical to a fresh
// BuildIndex over the current document snapshot, resetting delta sizes to
// zero without changing the index generation.

// ApplyInsert derives an index for snapshot doc with the area-annotation
// (pre, nameID, regs) added. regs must be in normalised interval.Area order
// (ascending, as Area.Regions returns them). doc must be the snapshot that
// contains the inserted element at pre.
func (ix *RegionIndex) ApplyInsert(doc *tree.Doc, pre, nameID int32, regs []interval.Region) *RegionIndex {
	n := ix.derive(doc)
	n.insPre = append(n.insPre, pre)
	n.insName = append(n.insName, nameID)
	n.insRegs = append(n.insRegs, regs...)
	n.insOff = append(n.insOff, int32(len(n.insRegs)))
	return n
}

// ApplyDelete derives an index for snapshot doc with the given
// area-annotations removed. The caller passes every area killed by the
// tombstone — the deleted annotation and any annotation inside its subtree —
// with the element name of each (deleting a subtree that nests annotations of
// other layers must drop their rows too, and the names keep FilterByName's
// per-name delegation exact).
func (ix *RegionIndex) ApplyDelete(doc *tree.Doc, pres, names []int32) *RegionIndex {
	n := ix.derive(doc)
	n.delPre = append(n.delPre, pres...)
	n.delName = append(n.delName, names...)
	return n
}

// derive starts a new delta layer on top of ix's lineage.
func (ix *RegionIndex) derive(doc *tree.Doc) *RegionIndex {
	n := &RegionIndex{doc: doc, opts: ix.opts}
	if ix.base != nil {
		n.base = ix.base
		n.insPre, n.insName, n.insOff, n.insRegs = ix.insPre, ix.insName, ix.insOff, ix.insRegs
		n.delPre, n.delName = ix.delPre, ix.delName
	} else {
		n.base = ix
		n.insOff = []int32{0}
	}
	return n
}

// DeltaStats returns the number of inserted and deleted annotations pending
// in the delta layers (0, 0 for a compacted/fresh index).
func (ix *RegionIndex) DeltaStats() (inserted, deleted int) {
	if ix.base == nil {
		return 0, 0
	}
	return len(ix.insPre), len(ix.delPre)
}

// materialize merges the delta layers into the base orderings on first read.
// No-op for a base index.
func (ix *RegionIndex) materialize() {
	if ix.base != nil {
		ix.mergeOnce.Do(ix.merge)
	}
}

func (ix *RegionIndex) merge() {
	b := ix.base
	dead := make(map[int32]struct{}, len(ix.delPre))
	for _, p := range ix.delPre {
		dead[p] = struct{}{}
	}
	ix.deadSet = dead
	ix.insRank = make(map[int32]int32, len(ix.insPre))

	// Sorted delta rows from the live inserts (an annotation inserted and
	// later deleted within the same delta window contributes nothing).
	var dAreas []int32
	var dr, db regionRows
	multi := b.multiRegion
	for i, pre := range ix.insPre {
		if _, gone := dead[pre]; gone {
			continue
		}
		ix.insRank[pre] = int32(i)
		regs := ix.insRegs[ix.insOff[i]:ix.insOff[i+1]]
		dAreas = append(dAreas, pre) // insert pres ascend: appended nodes
		for _, r := range regs {
			dr.push(r.Start, r.End, pre)
		}
		db.push(regs[0].Start, regs[len(regs)-1].End, pre)
		if len(regs) > 1 {
			multi = true
		}
	}
	sort.Sort(&dr)
	sort.Sort(&db)
	ix.multiRegion = multi
	ix.dRows = dr

	// Document-order area list: base areas (minus tombstones) then the delta
	// areas, whose pres all exceed the base document's node count.
	areas := make([]int32, 0, len(b.areas)+len(dAreas))
	if len(dead) == 0 {
		areas = append(areas, b.areas...)
	} else {
		for _, p := range b.areas {
			if _, gone := dead[p]; !gone {
				areas = append(areas, p)
			}
		}
	}
	ix.areas = append(areas, dAreas...)

	// Columnar two-way merges on (start, end, id).
	ix.rStart, ix.rEnd, ix.rID = mergeRows(b.rStart, b.rEnd, b.rID, dead, &dr)
	if !ix.multiRegion {
		ix.bStart, ix.bEnd, ix.bID = ix.rStart, ix.rEnd, ix.rID
	} else {
		ix.bStart, ix.bEnd, ix.bID = mergeRows(b.bStart, b.bEnd, b.bID, dead, &db)
	}
}

// nameTouched reports whether any delta insert or delete concerns an
// annotation with the given element name.
func (ix *RegionIndex) nameTouched(nameID int32) bool {
	for _, n := range ix.insName {
		if n == nameID {
			return true
		}
	}
	for _, n := range ix.delName {
		if n == nameID {
			return true
		}
	}
	return false
}

// Compact folds the delta layers into a fresh base index over the current
// document snapshot. The result is identical — orderings, per-area geometry,
// multi-region flag — to BuildIndex over the same snapshot, so the planner's
// statistics-based strategy choice is unchanged by compaction. Returns ix
// unchanged when there is nothing to fold.
func (ix *RegionIndex) Compact() *RegionIndex {
	if ix.base == nil {
		return ix
	}
	ix.materialize()
	n := &RegionIndex{doc: ix.doc, opts: ix.opts, areaRank: make(map[int32]int32, len(ix.areas))}
	for _, pre := range ix.areas {
		n.addArea(pre, ix.RegionsOf(pre))
	}
	n.sortRows()
	return n
}

// regionRows is a sortable (start, end, id) column triple.
type regionRows struct {
	start, end []int64
	id         []int32
}

func (r *regionRows) push(s, e int64, id int32) {
	r.start = append(r.start, s)
	r.end = append(r.end, e)
	r.id = append(r.id, id)
}

func (r *regionRows) Len() int { return len(r.id) }

func (r *regionRows) Less(i, j int) bool {
	return rowLess(r.start[i], r.end[i], r.id[i], r.start[j], r.end[j], r.id[j])
}

func (r *regionRows) Swap(i, j int) {
	r.start[i], r.start[j] = r.start[j], r.start[i]
	r.end[i], r.end[j] = r.end[j], r.end[i]
	r.id[i], r.id[j] = r.id[j], r.id[i]
}

func rowLess(s1, e1 int64, id1 int32, s2, e2 int64, id2 int32) bool {
	if s1 != s2 {
		return s1 < s2
	}
	if e1 != e2 {
		return e1 < e2
	}
	return id1 < id2
}

// mergeRows merges the base columns (skipping tombstoned ids) with the sorted
// delta rows, preserving (start, end, id) order.
func mergeRows(bs, be []int64, bid []int32, dead map[int32]struct{}, d *regionRows) (start, end []int64, id []int32) {
	n := len(bid) + d.Len()
	start = make([]int64, 0, n)
	end = make([]int64, 0, n)
	id = make([]int32, 0, n)
	if len(dead) == 0 {
		// Insert-only delta: the base survives whole, so instead of a
		// per-element walk (122k bounds-checked appends on the benchmark
		// corpus), binary-search each delta row's slot and bulk-copy the base
		// run before it. O(d log n) searches + O(n) memmove.
		i := 0
		for j := 0; j < d.Len(); j++ {
			k := i + sort.Search(len(bid)-i, func(m int) bool {
				return !rowLess(bs[i+m], be[i+m], bid[i+m], d.start[j], d.end[j], d.id[j])
			})
			start = append(start, bs[i:k]...)
			end = append(end, be[i:k]...)
			id = append(id, bid[i:k]...)
			start = append(start, d.start[j])
			end = append(end, d.end[j])
			id = append(id, d.id[j])
			i = k
		}
		start = append(start, bs[i:]...)
		end = append(end, be[i:]...)
		id = append(id, bid[i:]...)
		return start, end, id
	}
	i, j := 0, 0
	for i < len(bid) {
		if _, gone := dead[bid[i]]; gone {
			i++
			continue
		}
		if j < d.Len() && rowLess(d.start[j], d.end[j], d.id[j], bs[i], be[i], bid[i]) {
			start = append(start, d.start[j])
			end = append(end, d.end[j])
			id = append(id, d.id[j])
			j++
			continue
		}
		start = append(start, bs[i])
		end = append(end, be[i])
		id = append(id, bid[i])
		i++
	}
	for ; j < d.Len(); j++ {
		start = append(start, d.start[j])
		end = append(end, d.end[j])
		id = append(id, d.id[j])
	}
	return start, end, id
}
