package tipselect

import "fmt"

// CompactionGuardBand returns the dag.Compaction guard parameters that let
// epoch compaction freeze history out from under the given selector without
// changing a single walk: the selector's entry band [DepthMin, DepthMax].
//
// GuardDepth (= DepthMax) keeps everything a walk can visit resident: walk
// entries are sampled at depth <= DepthMax and walks only descend toward the
// tips. GuardDepthMin (= DepthMin) additionally lets the guard prove stale
// cones dead: a tip whose whole ancestry sits strictly below the entry band
// can never be reached by any walk again, so it stops blocking freezes.
// Selectors whose walks reach arbitrarily deep history — genesis-anchored
// walks (no depth band) and the cumulative-weight walk, which weighs the
// full DAG — are incompatible with compaction and return an error.
func CompactionGuardBand(s Selector) (depthMin, depthMax int, err error) {
	switch sel := s.(type) {
	case AccuracyWalk:
		if sel.DepthMax < 1 {
			return 0, 0, fmt.Errorf("tipselect: %s starts walks at genesis; compaction requires a depth band (DepthMax >= 1)", sel.Name())
		}
		return sel.DepthMin, sel.DepthMax, nil
	case UniformWalk:
		if sel.DepthMax < 1 {
			return 0, 0, fmt.Errorf("tipselect: %s starts walks at genesis; compaction requires a depth band (DepthMax >= 1)", sel.Name())
		}
		return sel.DepthMin, sel.DepthMax, nil
	case URTS:
		return 0, 0, nil
	case WeightedWalk:
		return 0, 0, fmt.Errorf("tipselect: %s weighs the full DAG; incompatible with compaction", sel.Name())
	default:
		return 0, 0, fmt.Errorf("tipselect: no compaction guard known for selector %s", s.Name())
	}
}
