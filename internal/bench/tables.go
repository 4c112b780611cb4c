package bench

import (
	"fmt"

	"multirag/internal/adapter"
	"multirag/internal/baselines"
	"multirag/internal/confidence"
	"multirag/internal/core"
	"multirag/internal/datasets"
	"multirag/internal/eval"
)

// TableI prints the dataset statistics table (sources, entities, relations,
// queries per format family), the analogue of the paper's Table I.
func TableI(o Options) error {
	t := eval.Table{
		Title:   "Table I: Statistics of the datasets preprocessed",
		Headers: []string{"Dataset", "Format", "Sources", "Entities", "Relations", "Queries"},
	}
	cache := datasetCache{}
	for _, name := range []string{"movies", "books", "flights", "stocks"} {
		d, err := cache.get(name, o)
		if err != nil {
			return err
		}
		byFormat := d.SourcesByFormat()
		for _, format := range []string{"json", "kg", "csv", "xml", "text"} {
			n := byFormat[format]
			if n == 0 {
				continue
			}
			ents := map[string]bool{}
			rels := 0
			formatOf := map[string]string{}
			for _, s := range d.Spec.Sources {
				formatOf[s.Name] = s.Format
			}
			for _, c := range d.Claims {
				if formatOf[c.Source] == format {
					ents[datasets.GoldKey(c.Entity, "")] = true
					rels++
				}
			}
			t.AddRow(name, formatLetter(format), fmt.Sprint(n),
				fmt.Sprint(len(ents)), fmt.Sprint(rels), fmt.Sprint(len(d.Queries)))
		}
	}
	t.Fprint(o.Out)
	return nil
}

func formatLetter(format string) string {
	switch format {
	case "json":
		return "JSON(J)"
	case "kg":
		return "KG(K)"
	case "csv":
		return "CSV(C)"
	case "xml":
		return "XML(X)"
	case "text":
		return "TEXT(T)"
	}
	return format
}

// tableIIMethods lists the Table II comparison columns in paper order.
func tableIIMethods() []baselines.FusionMethod {
	return []baselines.FusionMethod{
		baselines.NewTruthFinder(),
		baselines.NewLTM(),
		baselines.NewIRCoT(),
		baselines.NewMDQA(),
		baselines.NewChatKBQA(),
		baselines.NewFusionQuery(),
	}
}

// TableII runs the multi-source knowledge fusion comparison: F1 and time for
// every baseline plus the MCC-backed MultiRAG across the ten source combos.
func TableII(o Options) error {
	methods := tableIIMethods()
	headers := []string{"Dataset", "Sources"}
	for _, m := range methods {
		headers = append(headers, m.Name()+" F1/%", m.Name()+" T/s")
	}
	headers = append(headers, "MCC F1/%", "MCC T/s")
	t := eval.Table{
		Title:   "Table II: Comparison with baseline and SOTA methods for multi-source knowledge fusion",
		Headers: headers,
	}
	return comboRows(o, t, "table2", func(files []adapter.RawFile, queries []datasets.Query) ([]string, error) {
		var row []string
		for _, m := range methods {
			f1, secs, err := fusionCell(m, files, queries, o.seed())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.Name(), err)
			}
			row = append(row, fmt.Sprintf("%.1f", f1), fmtSeconds(secs))
		}
		f1, qt, _, err := multiragCell(core.Config{}, files, queries, o.seed())
		if err != nil {
			return nil, fmt.Errorf("MCC: %w", err)
		}
		return append(row, fmt.Sprintf("%.1f", f1), fmtSeconds(qt)), nil
	})
}

// ablationConfigs returns the Table III columns: the full framework and its
// four ablations.
func ablationConfigs() []struct {
	Name string
	Cfg  core.Config
} {
	return []struct {
		Name string
		Cfg  core.Config
	}{
		{"MultiRAG", core.Config{}},
		{"w/o MKA", core.Config{DisableMKA: true}},
		{"w/o Graph Level", core.Config{Ablation: confidence.Options{DisableGraphLevel: true}}},
		{"w/o Node Level", core.Config{Ablation: confidence.Options{DisableNodeLevel: true}}},
		{"w/o MCC", core.Config{Ablation: confidence.Options{DisableGraphLevel: true, DisableNodeLevel: true}}},
	}
}

// TableIII runs the MKA / MCC ablation study: F1, query time and
// preprocessing time per configuration across the ten combos.
func TableIII(o Options) error {
	configs := ablationConfigs()
	headers := []string{"Dataset", "Sources"}
	for _, c := range configs {
		headers = append(headers, c.Name+" F1/%", c.Name+" QT/s", c.Name+" PT/s")
	}
	t := eval.Table{
		Title:   "Table III: Ablation of multi-source knowledge aggregation (MKA) and multi-level confidence computing (MCC)",
		Headers: headers,
	}
	return comboRows(o, t, "table3", func(files []adapter.RawFile, queries []datasets.Query) ([]string, error) {
		var row []string
		for _, ac := range configs {
			f1, qt, pt, err := multiragCell(ac.Cfg, files, queries, o.seed())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ac.Name, err)
			}
			row = append(row, fmt.Sprintf("%.1f", f1), fmtSeconds(qt), fmtSeconds(pt))
		}
		return row, nil
	})
}

// comboRows adds one row to t per tableCombos entry, the dataset and source
// columns followed by what cells measures on that combo's files and queries,
// and prints t.
func comboRows(o Options, t eval.Table, table string, cells func([]adapter.RawFile, []datasets.Query) ([]string, error)) error {
	cache := datasetCache{}
	for _, c := range tableCombos {
		d, err := cache.get(c.dataset, o)
		if err != nil {
			return err
		}
		files, err := d.FilterFormats(c.letters)
		if err != nil {
			return fmt.Errorf("%s %s: %w", table, c.dataset, err)
		}
		queries, err := d.QueriesFor(c.letters, len(d.Queries))
		if err != nil {
			return fmt.Errorf("%s %s: %w", table, c.dataset, err)
		}
		row, err := cells(files, queries)
		if err != nil {
			return fmt.Errorf("%s %s/%s/%w", table, c.dataset, c.letters, err)
		}
		t.AddRow(append([]string{c.dataset, c.letters}, row...)...)
	}
	t.Fprint(o.Out)
	return nil
}
