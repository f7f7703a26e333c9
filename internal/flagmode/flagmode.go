// Package flagmode holds a command line to one row of a tool's mode
// table. Each row lists every flag its mode reads, and a flag set on the
// command line outside the row is refused, naming the modes it applies
// to, instead of silently ignored.
package flagmode

import (
	"flag"
	"fmt"
	"slices"
	"strings"
)

// Mode is one row of a tool's table: When says which command lines pick
// the mode ("with -index"), Flags lists every flag it reads, by name,
// space-separated.
type Mode struct{ When, Flags string }

// Reads reports whether the mode reads the flag name.
func (m Mode) Reads(name string) bool {
	return slices.Contains(strings.Fields(m.Flags), name)
}

// Check returns an error naming the first flag set on fs that
// modes[picked] does not read, and the modes that do read it; nil when
// every set flag is in the row.
func Check(fs *flag.FlagSet, modes []Mode, picked int) error {
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray != nil || modes[picked].Reads(f.Name) {
			return
		}
		var where []string
		for _, m := range modes {
			if m.Reads(f.Name) {
				where = append(where, m.When)
			}
		}
		stray = fmt.Errorf("-%s is not supported %s (it applies %s)", f.Name, modes[picked].When, strings.Join(where, "; "))
	})
	return stray
}
