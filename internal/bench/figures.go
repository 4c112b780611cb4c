package bench

import (
	"fmt"

	"multirag/internal/baselines"
	"multirag/internal/confidence"
	"multirag/internal/core"
	"multirag/internal/datasets"
	"multirag/internal/eval"
	"multirag/internal/kg"
	"multirag/internal/llm"
)

// perturbKind selects the Fig. 5 perturbation.
type perturbKind int

const (
	perturbMask    perturbKind = iota // relationship masking (sparsity)
	perturbShuffle                    // shuffled triple increments (inconsistency)
)

// perturbedMultiRAGF1 builds MultiRAG over the dataset, applies the graph
// perturbation, rebuilds SG′ and measures F1 (%).
func perturbedMultiRAGF1(d *datasets.Dataset, kind perturbKind, frac float64, seed uint64) (float64, error) {
	s := core.NewSystem(core.Config{LLM: llmConfig(seed)})
	if _, err := s.Ingest(d.Files); err != nil {
		return 0, err
	}
	applyPerturbation(s.Graph(), d, kind, frac, seed)
	s.RebuildSG()
	var f1 eval.Mean
	for _, q := range d.Queries {
		ans := s.Query(q.Text)
		_, _, f := eval.PRF1(ans.Values, q.Gold)
		f1.Add(f)
	}
	return f1.Value() * 100, nil
}

// perturbedBaselineF1 does the same for a baseline method.
func perturbedBaselineF1(m baselines.FusionMethod, d *datasets.Dataset, kind perturbKind, frac float64, seed uint64) (float64, error) {
	model := llm.NewSim(llmConfig(seed))
	env, err := buildEnv(d.Files, model)
	if err != nil {
		return 0, err
	}
	applyPerturbation(env.Graph, d, kind, frac, seed)
	m.Setup(env)
	var f1 eval.Mean
	for _, q := range d.Queries {
		got := m.AnswerFusion(q.Text, q.Entity, q.Attribute)
		_, _, f := eval.PRF1(got, q.Gold)
		f1.Add(f)
	}
	return f1.Value() * 100, nil
}

func applyPerturbation(g *kg.Graph, d *datasets.Dataset, kind perturbKind, frac float64, seed uint64) {
	switch kind {
	case perturbMask:
		datasets.MaskRelations(g, frac, seed+101, d.Gold)
	case perturbShuffle:
		datasets.AddShuffledTriples(g, frac, seed+202)
	}
}

// Figure5 runs the robustness sweeps: sparsity (relationship masking) on the
// Books and Stocks datasets, consistency (shuffled triple increments) on the
// Movies and Flights datasets, for MultiRAG vs ChatKBQA at 0/30/50/70%.
func Figure5(o Options) error {
	seed := o.seed()
	levels := []float64{0, 0.3, 0.5, 0.7}
	ticks := []string{"0%", "30%", "50%", "70%"}
	cache := datasetCache{}
	panels := []struct {
		panel   string
		dataset string
		kind    perturbKind
		label   string
	}{
		{"(a)", "movies", perturbShuffle, "consistency perturbation"},
		{"(b)", "books", perturbMask, "sparsity (relation masking)"},
		{"(c)", "flights", perturbShuffle, "consistency perturbation"},
		{"(d)", "stocks", perturbMask, "sparsity (relation masking)"},
	}
	for _, p := range panels {
		d, err := cache.get(p.dataset, o)
		if err != nil {
			return err
		}
		var ours, theirs []float64
		for _, frac := range levels {
			f1, err := perturbedMultiRAGF1(d, p.kind, frac, seed)
			if err != nil {
				return fmt.Errorf("fig5 %s multirag: %w", p.dataset, err)
			}
			ours = append(ours, f1)
			bf1, err := perturbedBaselineF1(baselines.NewChatKBQA(), d, p.kind, frac, seed)
			if err != nil {
				return fmt.Errorf("fig5 %s chatkbqa: %w", p.dataset, err)
			}
			theirs = append(theirs, bf1)
		}
		fig := eval.Figure{
			Title:   fmt.Sprintf("Figure 5%s: F1 in %s under %s", p.panel, p.dataset, p.label),
			XLabel:  "level",
			XTicks:  ticks,
			Percent: true,
			Series: []eval.Series{
				{Name: "MultiRAG", Ys: ours},
				{Name: "ChatKBQA", Ys: theirs},
			},
		}
		fig.Fprint(o.Out)
		fmt.Fprintln(o.Out)
	}
	return nil
}

// Figure6 runs the efficiency–accuracy tradeoff: F1 and query time at source
// corruption levels 0/10/30/50/70% on Movies and Books.
func Figure6(o Options) error {
	seed := o.seed()
	levels := []float64{0, 0.1, 0.3, 0.5, 0.7}
	ticks := []string{"0%", "10%", "30%", "50%", "70%"}
	cache := datasetCache{}
	for _, name := range []string{"movies", "books"} {
		d, err := cache.get(name, o)
		if err != nil {
			return err
		}
		var f1s, qts []float64
		var bf1s, bqts []float64
		for _, frac := range levels {
			corrupted, err := d.CorruptSources(frac, seed+307)
			if err != nil {
				return fmt.Errorf("fig6 %s: %w", name, err)
			}
			f1, qt, _, err := multiragCell(core.Config{}, corrupted.Files, corrupted.Queries, seed)
			if err != nil {
				return fmt.Errorf("fig6 %s multirag: %w", name, err)
			}
			f1s = append(f1s, f1)
			qts = append(qts, qt)
			bf1, bqt, err := fusionCell(baselines.NewFusionQuery(), corrupted.Files, corrupted.Queries, seed)
			if err != nil {
				return fmt.Errorf("fig6 %s fusionquery: %w", name, err)
			}
			bf1s = append(bf1s, bf1)
			bqts = append(bqts, bqt)
		}
		fig := eval.Figure{
			Title:   fmt.Sprintf("Figure 6: Efficiency–accuracy tradeoff on %s (corruption sweep)", name),
			XLabel:  "corruption",
			XTicks:  ticks,
			Percent: true,
			Series: []eval.Series{
				{Name: "MultiRAG F1", Ys: f1s},
				{Name: "FusionQuery F1", Ys: bf1s},
			},
		}
		fig.Fprint(o.Out)
		timeFig := eval.Figure{
			Title:  fmt.Sprintf("Figure 6 (cont.): query time on %s, seconds", name),
			XLabel: "corruption",
			XTicks: ticks,
			Series: []eval.Series{
				{Name: "MultiRAG QT", Ys: qts},
				{Name: "FusionQuery QT", Ys: bqts},
			},
		}
		timeFig.Fprint(o.Out)
		fmt.Fprintln(o.Out)
	}
	return nil
}

// Figure7 sweeps the authority mixing weight α on the Books J/C/X corpus,
// reporting F1 and query time per α.
func Figure7(o Options) error {
	cache := datasetCache{}
	d, err := cache.get("books", o)
	if err != nil {
		return err
	}
	files, err := d.FilterFormats("J/C/X")
	if err != nil {
		return fmt.Errorf("fig7: %w", err)
	}
	queries, err := d.QueriesFor("J/C/X", len(d.Queries))
	if err != nil {
		return fmt.Errorf("fig7: %w", err)
	}
	alphas := []float64{0, 0.25, 0.5, 0.75, 1.0}
	ticks := []string{"0.0", "0.25", "0.5", "0.75", "1.0"}
	var f1s, qts []float64
	for _, a := range alphas {
		mcc := confidence.DefaultConfig()
		mcc.Alpha = a
		f1, qt, _, err := multiragCell(core.Config{MCC: mcc}, files, queries, o.seed())
		if err != nil {
			return fmt.Errorf("fig7 alpha=%.2f: %w", a, err)
		}
		f1s = append(f1s, f1)
		qts = append(qts, qt)
	}
	fig := eval.Figure{
		Title:   "Figure 7: Influence of hyperparameter alpha on multi-source retrieval (Books J/C/X)",
		XLabel:  "alpha",
		XTicks:  ticks,
		Percent: true,
		Series:  []eval.Series{{Name: "F1", Ys: f1s}},
	}
	fig.Fprint(o.Out)
	timeFig := eval.Figure{
		Title:  "Figure 7 (cont.): query time, seconds",
		XLabel: "alpha",
		XTicks: ticks,
		Series: []eval.Series{{Name: "QT", Ys: qts}},
	}
	timeFig.Fprint(o.Out)
	return nil
}
