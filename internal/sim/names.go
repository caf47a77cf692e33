package sim

// The names a run is specified by at the edges — cmd/specdag flags and
// specdagd's RunRequest JSON — resolved here once, so both accept exactly the
// same spellings and an unknown name is answered with the list.

import (
	"fmt"
	"math"
	"strings"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/tipselect"
)

// DatasetNames lists the dataset names SpecByName accepts.
func DatasetNames() []string {
	return []string{"fmnist", "fmnist-relaxed", "fmnist-bywriter", "poets", "cifar100", "fedprox"}
}

// SelectorNames lists the tip-selector names SelectorByName accepts.
func SelectorNames() []string { return []string{"accuracy", "weighted", "urts", "uniform"} }

// NormNames lists the walk-weight normalization names SelectorByName accepts.
func NormNames() []string { return []string{"standard", "dynamic"} }

func unknownName(kind, name string, known []string) error {
	return fmt.Errorf("unknown %s %q (%s)", kind, name, strings.Join(known, " | "))
}

// PresetByName resolves an experiment scale: quick | full.
func PresetByName(name string) (Preset, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Quick, unknownName("preset", name, []string{"quick", "full"})
}

// SpecByName builds the named dataset's Spec.
func SpecByName(name string, p Preset, seed int64) (Spec, error) {
	switch name {
	case "fmnist":
		return FMNISTSpec(p, seed), nil
	case "fmnist-relaxed":
		return RelaxedFMNISTSpec(p, seed), nil
	case "fmnist-bywriter":
		return ByWriterFMNISTSpec(p, seed), nil
	case "poets":
		return PoetsSpec(p, seed), nil
	case "cifar100":
		return CIFARSpec(p, seed), nil
	case "fedprox":
		return FedProxSpec(p, seed), nil
	}
	return Spec{}, unknownName("dataset", name, DatasetNames())
}

// SelectorByName builds the named tip selector. alpha and norm parameterize
// the walks that have them; depthMin/depthMax, when positive, band the walk
// entry depth (required for compaction). A band no walk can enter — negative,
// inverted, or a depth-min without its depth-max — is an error rather than
// the genesis-anchored run it would silently become, and so is a non-finite
// alpha for the walks it weights: every weight would be NaN or 0 and the
// walk uniform.
func SelectorByName(name, norm string, alpha float64, depthMin, depthMax int) (tipselect.Selector, error) {
	switch {
	case (name == "accuracy" || name == "weighted") && (math.IsNaN(alpha) || math.IsInf(alpha, 0)):
		return nil, fmt.Errorf("alpha %v is not finite: the %s walk would weight every child NaN or 0 and walk uniformly", alpha, name)
	case depthMin < 0 || depthMax < 0:
		return nil, fmt.Errorf("depth-min %d and depth-max %d must not be negative", depthMin, depthMax)
	case depthMin > 0 && depthMax == 0:
		return nil, fmt.Errorf("depth-min %d needs a depth-max (0 starts walks at genesis)", depthMin)
	case depthMin > depthMax:
		return nil, fmt.Errorf("depth-min %d exceeds depth-max %d", depthMin, depthMax)
	}
	var normalization tipselect.Normalization
	switch norm {
	case "standard":
		normalization = tipselect.NormStandard
	case "dynamic":
		normalization = tipselect.NormDynamic
	default:
		return nil, unknownName("normalization", norm, NormNames())
	}
	switch name {
	case "accuracy":
		return tipselect.AccuracyWalk{Alpha: alpha, Norm: normalization, DepthMin: depthMin, DepthMax: depthMax}, nil
	case "weighted":
		return tipselect.WeightedWalk{Alpha: alpha, DepthMin: depthMin, DepthMax: depthMax}, nil
	case "urts":
		return tipselect.URTS{}, nil
	case "uniform":
		return tipselect.UniformWalk{DepthMin: depthMin, DepthMax: depthMax}, nil
	}
	return nil, unknownName("selector", name, SelectorNames())
}

// CompactionByWidth maps the operator-facing compaction knobs to the engine
// config: width 0 keeps everything, live 0 selects the default of two
// trailing live epochs. Frozen parameters are released without spilling
// unless the caller adds a SpillDir.
func CompactionByWidth(width, live int) dag.Compaction {
	if width <= 0 {
		return dag.Compaction{}
	}
	if live == 0 {
		live = 2
	}
	return dag.Compaction{Width: width, Live: live}
}
