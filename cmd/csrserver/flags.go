package main

import (
	"flag"
	"fmt"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/flagmode"
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
var modes = []flagmode.Mode{
	modeLocal:  {When: "without -waldir, -shardaddrs or -shardworker", Flags: graphFlags + frontFlags},
	modeIngest: {When: "with -waldir", Flags: graphFlags + frontFlags + "waldir driftbudget"},
	modeRouter: {When: "with -shardaddrs", Flags: frontFlags + "shardaddrs"},
	modeWorker: {When: "with -shardworker", Flags: "shardworker snapshots addr admintoken"},
}

// config is the parsed command line.
type config struct {
	mode mode

	src graph.Source // the graph a cold build precomputes over; a snapshot carries its own
	// n is the node count of the graph src names, known without reading
	// it; 0 when it names none, and the boot must serve a snapshot.
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
	c.src.Flags(fs)
	fs.IntVar(&c.rank, "r", core.DefaultRank, "SVD rank")
	fs.Float64Var(&c.damping, "c", core.DefaultDamping, "damping factor")
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
	if err := flagmode.Check(fs, modes, int(c.mode)); err != nil {
		return nil, err
	}
	if c.mode == modeWorker && c.snapDir == "" {
		return nil, fmt.Errorf("-shardworker requires -snapshots (the worker boots from <snapshots>/shard-<s>)")
	}
	if c.mode == modeLocal || c.mode == modeIngest {
		// Only a cold build reads the graph, and c.n is its node count known
		// without reading it: most boots never do (source.go), and a loaded
		// index is checked against c.n instead. A boot over -snapshots may
		// name none: it serves the newest generation that loads, whose graph
		// section is its graph.
		var err error
		if c.n, err = c.src.Nodes(); err != nil {
			return nil, err
		}
		if c.n == 0 && c.snapDir == "" {
			return nil, fmt.Errorf("one of -dataset or -graph is required without -snapshots (a cold build precomputes over it)")
		}
	}
	c.wire.AdminToken = c.adminToken
	return c, nil
}
