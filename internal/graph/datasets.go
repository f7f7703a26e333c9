package graph

import (
	"fmt"
	"math"
	"sort"
)

// Dataset describes one of the paper's six evaluation graphs (Table in
// §4.1) together with the synthetic generator that stands in for it in
// this offline reproduction. PaperN/PaperM record the original SNAP sizes;
// the generator produces a graph of n = PaperN/Scale nodes and
// m ≈ PaperM/Scale edges with the original's direction and degree skew.
type Dataset struct {
	Key         string  // short name used throughout the paper: FB, P2P, …
	Description string  // the paper's description column
	PaperN      int64   // nodes in the original SNAP dataset
	PaperM      int64   // edges in the original SNAP dataset
	Scale       int64   // default downscale factor for this machine
	Kind        GenKind // generator family
	Seed        int64   // fixed seed for reproducibility
}

// GenKind selects the generator family for a dataset stand-in.
type GenKind int

const (
	// GenBA is Barabási–Albert preferential attachment (symmetric social).
	GenBA GenKind = iota
	// GenER is a uniform random directed graph.
	GenER
	// GenRMAT is the recursive power-law generator.
	GenRMAT
)

// Datasets lists the paper's six graphs in its Table order. Scales are
// chosen so the whole evaluation suite runs on a 1-core/15 GB machine
// (see DESIGN.md §5); FB and P2P are full size.
var Datasets = []Dataset{
	{Key: "FB", Description: "Social friendship from ego-Facebook", PaperN: 4039, PaperM: 88234, Scale: 1, Kind: GenBA, Seed: 101},
	{Key: "P2P", Description: "Gnutella peer-to-peer network", PaperN: 22687, PaperM: 54705, Scale: 1, Kind: GenER, Seed: 102},
	{Key: "YT", Description: "Youtube social network communities", PaperN: 1134890, PaperM: 5975248, Scale: 20, Kind: GenRMAT, Seed: 103},
	{Key: "WT", Description: "Wikipedia talk (communication) graph", PaperN: 2394385, PaperM: 5021410, Scale: 20, Kind: GenRMAT, Seed: 104},
	{Key: "TW", Description: "Twitter user-follower network", PaperN: 41652230, PaperM: 1468365182, Scale: 400, Kind: GenRMAT, Seed: 105},
	{Key: "WB", Description: "A graph obtained by a Webbase crawler", PaperN: 118142155, PaperM: 1019903190, Scale: 400, Kind: GenRMAT, Seed: 106},
}

// DatasetByKey returns the named dataset descriptor.
func DatasetByKey(key string) (Dataset, error) {
	for _, d := range Datasets {
		if d.Key == key {
			return d, nil
		}
	}
	known := make([]string, len(Datasets))
	for i, d := range Datasets {
		known[i] = d.Key
	}
	sort.Strings(known)
	return Dataset{}, fmt.Errorf("graph: unknown dataset %q (known: %v)", key, known)
}

// Generate builds the synthetic stand-in graph at the dataset's default
// scale. The result is deterministic for a given descriptor.
func (d Dataset) Generate() (*Graph, error) {
	return d.GenerateScaled(d.Scale)
}

// GenerateScaled builds the stand-in at an explicit downscale factor
// (1 = the original size — only attempt that for FB/P2P on this machine).
func (d Dataset) GenerateScaled(scale int64) (*Graph, error) {
	if scale < 1 {
		return nil, fmt.Errorf("graph: dataset %s: scale %d < 1", d.Key, scale)
	}
	n := d.Nodes(scale)
	m := d.PaperM / scale
	switch d.Kind {
	case GenBA:
		// Undirected BA emits ~2*n*k directed edges; pick k to match m.
		k := int(math.Round(float64(m) / (2 * float64(n))))
		if k < 1 {
			k = 1
		}
		return BarabasiAlbert(n, k, d.Seed)
	case GenER:
		return ErdosRenyi(n, m, d.Seed)
	case GenRMAT:
		return RMAT(bitsFor(n), m, DefaultRMAT, d.Seed)
	default:
		return nil, fmt.Errorf("graph: dataset %s: unknown generator kind %d", d.Key, int(d.Kind))
	}
}

// Nodes returns the node count GenerateScaled(scale) produces, without
// generating anything: PaperN/scale, rounded up to the next power of two
// (R-MAT's domain) for an R-MAT stand-in. scale must be at least 1.
func (d Dataset) Nodes(scale int64) int {
	if scale < 1 {
		return 0
	}
	n := int(d.PaperN / scale)
	if d.Kind == GenRMAT {
		n = 1 << bitsFor(n)
	}
	return n
}

// bitsFor returns ceil(log2(n)) clamped to at least 1.
func bitsFor(n int) int {
	s := 1
	for (1 << s) < n {
		s++
	}
	return s
}
