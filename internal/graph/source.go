package graph

import (
	"errors"
	"flag"
)

// Source names a command's graph: a seeded stand-in for one of the paper's
// datasets (-dataset, -dscale) or an edge-list file (-graph, -n).
type Source struct {
	Dataset string // dataset key: FB, P2P, YT, WT, TW or WB
	Scale   int64  // downscale factor of Dataset; <= 0 is the dataset's default
	Path    string // edge-list file
	N       int    // node count of Path
}

// Flags registers -dataset, -dscale, -graph and -n on fs, into s.
func (s *Source) Flags(fs *flag.FlagSet) {
	fs.StringVar(&s.Dataset, "dataset", "", "paper dataset stand-in: FB, P2P, YT, WT, TW, WB")
	fs.Int64Var(&s.Scale, "dscale", 0, "downscale factor of -dataset (0 = the dataset's default)")
	fs.StringVar(&s.Path, "graph", "", "edge-list file (src dst per line)")
	fs.IntVar(&s.N, "n", 0, "node count of -graph")
}

// Check refuses a graph named twice or by halves: -dataset beside -graph,
// -n without -graph, -dscale without -dataset, -graph without -n. Naming
// none passes.
func (s Source) Check() error {
	switch {
	case s.Dataset != "" && s.Path != "":
		return errors.New("use either -dataset or -graph, not both")
	case s.N != 0 && s.Path == "":
		return errors.New("-n requires -graph")
	case s.Scale != 0 && s.Dataset == "":
		return errors.New("-dscale requires -dataset")
	case s.Path != "" && s.N <= 0:
		return errors.New("-graph requires -n (node count)")
	}
	return nil
}

// Nodes checks s and returns the node count of its graph without reading
// or generating it; 0 when s names none.
func (s Source) Nodes() (int, error) {
	if err := s.Check(); err != nil {
		return 0, err
	}
	if s.Dataset == "" {
		return s.N, nil
	}
	d, scale, err := s.Stand()
	return d.Nodes(scale), err
}

// Load checks s, then reads the edge-list file or generates the stand-in.
func (s Source) Load() (*Graph, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	switch {
	case s.Dataset != "":
		d, scale, err := s.Stand()
		if err != nil {
			return nil, err
		}
		return d.GenerateScaled(scale)
	case s.Path != "":
		return Load(s.Path, s.N)
	}
	return nil, errors.New("one of -dataset or -graph is required")
}

// Stand returns the descriptor of s's dataset and the scale it is
// generated at: the one place a dataset's default scale is read.
func (s Source) Stand() (Dataset, int64, error) {
	d, err := DatasetByKey(s.Dataset)
	if s.Scale > 0 {
		return d, s.Scale, err
	}
	return d, d.Scale, err
}
