package core

// Stats summarises a region index for the planner's per-step cost model: the
// area and region counts of the annotation layer, whether any area is
// non-contiguous, the document size, and the per-tag element cardinalities
// taken from the tree dictionary. The planner uses these to choose between
// the Basic and Loop-Lifted StandOff MergeJoin per step (layered-annotation
// workloads mix tiny and huge annotation layers in one query, which is where
// a static per-query strategy loses).
//
// Stats is computed once per index and shared; callers must treat
// ElementCard as read-only.
type Stats struct {
	// Areas is the number of area-annotations (NumAreas).
	Areas int
	// Regions is the number of region rows (NumRegions, >= Areas).
	Regions int
	// MultiRegion reports whether any area has more than one region.
	MultiRegion bool
	// DocNodes is the node count of the indexed document.
	DocNodes int
	// ElementCard maps each element name that occurs in the document to its
	// element cardinality (per the tree dictionary's element-name index).
	// Names that never occur as elements are absent.
	ElementCard map[string]int
}

// Card returns the element cardinality of name (0 when absent).
func (s Stats) Card(name string) int { return s.ElementCard[name] }

// Stats returns the index statistics, computed on first use. The result is
// safe to share: the index is immutable after Build.
func (ix *RegionIndex) Stats() Stats {
	ix.materialize()
	ix.statsOnce.Do(func() {
		d := ix.doc
		card := map[string]int{}
		for id := int32(0); id < int32(d.Dict().Len()); id++ {
			if n := len(d.ElementsByName(id)); n > 0 {
				card[d.Dict().Name(id)] = n
			}
		}
		ix.stats = Stats{
			Areas:       ix.NumAreas(),
			Regions:     ix.NumRegions(),
			MultiRegion: ix.multiRegion,
			DocNodes:    d.NumNodes(),
			ElementCard: card,
		}
	})
	return ix.stats
}
