// Package bench regenerates every table and figure of the paper's evaluation
// section (§IV). Each experiment has one entry point (TableI … TableV,
// Figure5 … Figure7) that runs the workload and renders plain-text output
// comparable, row for row, with the paper. See DESIGN.md §5 for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured results.
package bench

import (
	"fmt"
	"io"

	"multirag/internal/adapter"
	"multirag/internal/baselines"
	"multirag/internal/core"
	"multirag/internal/datasets"
	"multirag/internal/eval"
	"multirag/internal/extract"
	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
)

// Options configures a benchmark run.
type Options struct {
	// Seed drives dataset generation and the simulated LLM.
	Seed uint64
	// Scale multiplies entity and query counts; 1.0 is the paper-shaped
	// default, smaller values give quick smoke runs.
	Scale float64
	// Out receives the rendered tables/figures.
	Out io.Writer
}

// scaleSpec shrinks a dataset spec by opts.Scale.
func (o Options) scaleSpec(spec datasets.Spec) datasets.Spec {
	if o.Scale > 0 && o.Scale != 1 {
		spec.Entities = max(8, int(float64(spec.Entities)*o.Scale))
		spec.Queries = max(5, int(float64(spec.Queries)*o.Scale))
	}
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	return spec
}

func (o Options) scaleQA(spec datasets.QASpec) datasets.QASpec {
	if o.Scale > 0 && o.Scale != 1 {
		spec.Questions = max(5, int(float64(spec.Questions)*o.Scale))
	}
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	return spec
}

// seed is the run's seed: Seed, or 1 when it is unset.
func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// llmConfig is the shared simulated-model configuration for benchmark runs.
func llmConfig(seed uint64) llm.Config {
	cfg := llm.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// buildEnv constructs a baseline environment (graph + chunk index + model)
// from raw files, mirroring exactly what core.System ingests so every method
// sees the same corpus.
func buildEnv(files []adapter.RawFile, model *llm.Sim) (*baselines.Env, error) {
	fused, err := adapter.NewRegistry().Fuse(files)
	if err != nil {
		return nil, err
	}
	g := kg.New()
	ext := extract.NewRaw(model)
	for _, f := range fused {
		if _, err := ext.BuildFile(g, f); err != nil {
			return nil, err
		}
	}
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	for _, n := range fused {
		for _, c := range core.RenderChunks(n, 64) {
			ix.Add(c)
		}
	}
	return &baselines.Env{Graph: g, Index: ix, Model: model}, nil
}

// fusionCell measures one baseline on one filtered corpus: mean F1 (%) over
// the workload and its priced time in seconds (LLM latency plus record
// fetches).
func fusionCell(m baselines.FusionMethod, files []adapter.RawFile, queries []datasets.Query, seed uint64) (f1pct, seconds float64, err error) {
	model := llm.NewSim(llmConfig(seed))
	env, err := buildEnv(files, model)
	if err != nil {
		return 0, 0, err
	}
	model.ResetUsage() // setup/extraction cost is preprocessing, not QT
	m.Setup(env)
	var f1 eval.Mean
	for _, q := range queries {
		got := m.AnswerFusion(q.Text, q.Entity, q.Attribute)
		_, _, f := eval.PRF1(got, q.Gold)
		f1.Add(f)
	}
	var clock eval.Clock
	clock.AddVirtual(model.VirtualLatency())
	clock.ChargeClaimFetches(env.Fetches)
	return f1.Value() * 100, clock.Seconds(), nil
}

// multiragCell measures the full MultiRAG pipeline (or an ablation) on one
// filtered corpus. It returns F1 (%), query time and preprocessing time in
// seconds.
func multiragCell(cfg core.Config, files []adapter.RawFile, queries []datasets.Query, seed uint64) (f1pct, qt, pt float64, err error) {
	if cfg.LLM == (llm.Config{}) {
		cfg.LLM = llmConfig(seed)
	}
	s := core.NewSystem(cfg)
	if _, err := s.Ingest(files); err != nil {
		return 0, 0, 0, err
	}
	pt = s.BuildCost().Seconds()

	s.Model().ResetUsage()
	s.MCC().History().ResetScans()
	var f1 eval.Mean
	fetches := 0
	for _, q := range queries {
		ans := s.Query(q.Text)
		fetches += len(ans.Trusted) + ans.RejectedCount
		_, _, f := eval.PRF1(ans.Values, q.Gold)
		f1.Add(f)
	}
	var clock eval.Clock
	clock.AddVirtual(s.Model().VirtualLatency())
	clock.ChargeHistoryScans(s.MCC().History().Scans())
	clock.ChargeClaimFetches(fetches)
	return f1.Value() * 100, clock.Seconds(), pt, nil
}

// combo is one Table II / Table III row definition.
type combo struct {
	dataset string
	letters string
}

// tableCombos lists the paper's ten dataset/source-format rows.
var tableCombos = []combo{
	{"movies", "J/K"},
	{"movies", "J/C"},
	{"movies", "K/C"},
	{"movies", "J/K/C"},
	{"books", "J/C"},
	{"books", "J/X"},
	{"books", "C/X"},
	{"books", "J/C/X"},
	{"flights", "C/J"},
	{"stocks", "C/J"},
}

// generateFor returns the generated dataset for a combo row (cached per
// dataset name within one run).
type datasetCache map[string]*datasets.Dataset

func (c datasetCache) get(name string, o Options) (*datasets.Dataset, error) {
	if d, ok := c[name]; ok {
		return d, nil
	}
	spec, err := datasets.ByName(name, o.seed())
	if err != nil {
		return nil, err
	}
	d, err := datasets.Generate(o.scaleSpec(spec))
	if err != nil {
		return nil, err
	}
	c[name] = d
	return d, nil
}

// fmtSeconds renders a duration-in-seconds cell the way the paper does:
// more digits for smaller values.
func fmtSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 10:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.2f", s)
	}
}
