package bench

// datasets.go renders the paper's §4.1 dataset table side by side with
// the generated stand-ins — the evidence that each substitution matches
// the original's shape (size ratio m/n, degree skew, connectivity).

import (
	"fmt"

	"csrplus/internal/graph"
)

// RenderDatasets generates every stand-in at the Env's scale and prints
// the characterisation table.
func (e *Env) RenderDatasets() error {
	t := &Table{
		Title: "Datasets: paper originals vs generated stand-ins (DESIGN.md §5)",
		Header: []string{"Key", "paper n", "paper m", "paper m/n",
			"ours n", "ours m", "ours m/n", "max-in", "zero-in", "wcc", "heavy-tail"},
	}
	for _, key := range GridDatasets {
		d, _, err := graph.Source{Dataset: key}.Stand()
		if err != nil {
			return err
		}
		g, err := e.Dataset(key)
		if err != nil {
			return err
		}
		st := g.ComputeStats()
		_, wcc := g.WeakComponents()
		hist := g.InDegreeHistogram()
		t.AddRow(key,
			fmt.Sprint(d.PaperN), fmt.Sprint(d.PaperM),
			fmt.Sprintf("%.1f", float64(d.PaperM)/float64(d.PaperN)),
			fmt.Sprint(st.N), fmt.Sprint(st.M),
			fmt.Sprintf("%.1f", st.AvgDegree),
			fmt.Sprint(st.MaxInDeg), fmt.Sprint(st.ZeroInDeg), fmt.Sprint(wcc),
			fmt.Sprintf("%t", hist.PowerLawish(10)),
		)
	}
	t.Render(e.Out)
	return nil
}
