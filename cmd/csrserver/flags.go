package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"csrplus/internal/graph"
	"csrplus/internal/serve"
	"csrplus/internal/wire"
)

// mode is what one csrserver process is: it decides where router
// generations come from (source.go), and nothing after that.
type mode int

const (
	modeLocal  mode = iota // the graph's whole index in this process
	modeIngest             // modeLocal plus the WAL-backed edge stream
	modeRouter             // remote slots: the frontend of a worker cluster
	modeWorker             // one shard behind the wire protocol, no frontend
)

const (
	graphFlags = "dataset dscale graph n r c snapshots "
	frontFlags = "addr admintoken workers pending maxk timeout "
)

// modes is the whole compatibility contract between flags: each mode
// lists every flag it reads, and a flag set on the command line that the
// mode does not list is rejected instead of silently ignored.
var modes = [...]struct{ when, flags string }{
	modeLocal:  {"without -waldir, -shardaddrs or -shardworker", graphFlags + frontFlags},
	modeIngest: {"with -waldir", graphFlags + frontFlags + "waldir driftbudget"},
	modeRouter: {"with -shardaddrs", frontFlags + "shardaddrs"},
	modeWorker: {"with -shardworker", "shardworker snapshots addr admintoken"},
}

func (m mode) reads(name string) bool {
	for _, f := range strings.Fields(modes[m].flags) {
		if f == name {
			return true
		}
	}
	return false
}

// config is the parsed command line.
type config struct {
	mode mode

	dataset, graphPath string
	dscale             int64
	// n is the node count of the graph the flags name — -n for -graph,
	// the descriptor's for -dataset — known without reading the graph.
	n, rank     int
	damping     float64
	snapDir     string
	shardWorker int
	shardAddrs  string
	walDir      string
	driftBudget float64

	addr, adminToken string
	serve            serve.Config
	wire             wire.Options
}

// parseFlags registers every flag on fs, parses args, picks the mode and
// holds the command line to that mode's row of the table.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{}
	fs.StringVar(&c.dataset, "dataset", "", "paper dataset stand-in: FB, P2P, YT, WT, TW, WB")
	fs.Int64Var(&c.dscale, "dscale", 0, "dataset downscale factor (0 = default)")
	fs.StringVar(&c.graphPath, "graph", "", "edge-list file")
	fs.IntVar(&c.n, "n", 0, "node count for -graph")
	fs.IntVar(&c.rank, "r", 5, "SVD rank")
	fs.Float64Var(&c.damping, "c", 0.6, "damping factor")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.snapDir, "snapshots", "", "versioned snapshot directory (index-<gen>.csrx, or shard-<s>/ of the same with -shardworker); boot from its newest generation that loads when populated (csrstat -index FILE -convert DIR publishes a pre-built file or an old generation as the newest); every index the server builds (boot, drift rebuilds) is published into it, and each publish prunes all but the newest generations")
	fs.IntVar(&c.shardWorker, "shardworker", -1, "serve ONE shard over the wire protocol: boot from <snapshots>/shard-<s> and answer /shard/* requests")
	fs.StringVar(&c.shardAddrs, "shardaddrs", "", "comma-separated shard worker addresses; serve as the router over these remote slots")
	fs.StringVar(&c.adminToken, "admintoken", "", "bearer token authorising the POST /admin/* routes (empty disables them)")
	fs.StringVar(&c.walDir, "waldir", "", "write-ahead log directory for durable streaming edge ingestion; enables POST /admin/edges and boot-time crash replay")
	fs.Float64Var(&c.driftBudget, "driftbudget", 0, "entrywise drift bound past which streamed edges mark answers degraded and trigger a live-graph rebuild (0 disables)")
	fs.IntVar(&c.serve.Workers, "workers", 0, "concurrent engine calls (0 = GOMAXPROCS)")
	fs.IntVar(&c.serve.MaxPending, "pending", 1024, "requests that may wait for an engine call; beyond them requests get 429")
	fs.IntVar(&c.serve.MaxK, "maxk", serve.DefaultMaxK, "server-side cap on requested k")
	fs.DurationVar(&c.serve.Timeout, "timeout", 5*time.Second, "per-request deadline (0 disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	switch {
	case c.shardWorker >= 0:
		c.mode = modeWorker
	case c.shardAddrs != "":
		c.mode = modeRouter
	case c.walDir != "":
		c.mode = modeIngest
	}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray == nil && !c.mode.reads(f.Name) {
			var where []string
			for m := range modes {
				if mode(m).reads(f.Name) {
					where = append(where, modes[m].when)
				}
			}
			stray = fmt.Errorf("-%s is not supported %s (it applies %s)", f.Name, modes[c.mode].when, strings.Join(where, "; "))
		}
	})
	switch {
	case stray != nil:
		return nil, stray
	case c.mode == modeWorker && c.snapDir == "":
		return nil, fmt.Errorf("-shardworker requires -snapshots (the worker boots from <snapshots>/shard-<s>)")
	}
	if c.mode == modeLocal || c.mode == modeIngest {
		if err := c.nameGraph(); err != nil {
			return nil, err
		}
	}
	c.wire.AdminToken = c.adminToken
	return c, nil
}

// nameGraph holds the flags to naming exactly one graph and resolves its
// node count without reading it: most boots never do (source.go), and a
// loaded index is checked against c.n instead.
func (c *config) nameGraph() error {
	switch {
	case c.dataset != "" && c.graphPath != "":
		return fmt.Errorf("use either -dataset or -graph, not both")
	case c.dataset != "":
		d, err := graph.DatasetByKey(c.dataset)
		if err != nil {
			return err
		}
		scale := c.dscale
		if scale <= 0 {
			scale = d.Scale // as csrplus.GenerateDataset reads -dscale
		}
		c.n = d.Nodes(scale)
	case c.graphPath == "":
		return fmt.Errorf("one of -dataset or -graph is required")
	case c.n <= 0:
		return fmt.Errorf("-graph requires -n")
	}
	return nil
}
