package bench

import (
	"fmt"

	"multirag/internal/adapter"
	"multirag/internal/baselines"
	"multirag/internal/core"
	"multirag/internal/datasets"
	"multirag/internal/eval"
	"multirag/internal/jsonld"
	"multirag/internal/llm"
)

// qaFiles renders a QA corpus as one raw text file per document and the
// normalised-ID → document-ID mapping used to score Recall@5.
func qaFiles(qa *datasets.QADataset) ([]adapter.RawFile, map[string]string) {
	var files []adapter.RawFile
	mapping := map[string]string{}
	for _, doc := range qa.Docs {
		files = append(files, adapter.RawFile{
			Domain: "wiki", Source: doc.Source, Name: doc.ID, Format: "text",
			Content: []byte(doc.Text),
		})
		mapping[jsonld.NormalizedID("wiki", doc.Source, doc.ID)] = doc.ID
	}
	return files, mapping
}

func mapDocs(ids []string, mapping map[string]string) []string {
	var out []string
	for _, id := range ids {
		if name, ok := mapping[id]; ok {
			out = append(out, name)
		}
	}
	return out
}

// qaMethodCell measures one baseline on one QA dataset: answer precision (%)
// and Recall@5 (%).
func qaMethodCell(m baselines.QAMethod, qa *datasets.QADataset, seed uint64) (precision, recall5 float64, err error) {
	model := llm.NewSim(llmConfig(seed))
	files, mapping := qaFiles(qa)
	env, err := buildEnv(files, model)
	if err != nil {
		return 0, 0, err
	}
	m.Setup(env)
	var prec, rec eval.Mean
	for _, q := range qa.Questions {
		ans, docs := m.AnswerQA(q.Text, 5)
		p, _, _ := eval.PRF1(ans, q.Answer)
		prec.Add(p)
		rec.Add(eval.RecallAtK(mapDocs(docs, mapping), q.Support, 5))
	}
	return prec.Value() * 100, rec.Value() * 100, nil
}

// qaMultiRAGCell measures MultiRAG on one QA dataset.
func qaMultiRAGCell(qa *datasets.QADataset, seed uint64) (precision, recall5 float64, err error) {
	files, mapping := qaFiles(qa)
	s := core.NewSystem(core.Config{LLM: llmConfig(seed)})
	if _, err := s.Ingest(files); err != nil {
		return 0, 0, err
	}
	var prec, rec eval.Mean
	for _, q := range qa.Questions {
		ans, docs := s.QueryWithDocs(q.Text, 5)
		p, _, _ := eval.PRF1(ans.Values, q.Answer)
		prec.Add(p)
		rec.Add(eval.RecallAtK(mapDocs(docs, mapping), q.Support, 5))
	}
	return prec.Value() * 100, rec.Value() * 100, nil
}

// tableIVMethods lists the Table IV comparison rows in paper order.
func tableIVMethods() []baselines.QAMethod {
	return []baselines.QAMethod{
		baselines.NewStandardRAG(),
		baselines.NewCoT(),
		baselines.NewIRCoT(),
		baselines.NewChatKBQA(),
		baselines.NewMDQA(),
		baselines.NewRQRAG(),
		baselines.NewMetaRAG(),
	}
}

// TableIV runs the multi-hop QA comparison on the HotpotQA-like and
// 2WikiMultiHopQA-like datasets: Precision and Recall@5 per method.
func TableIV(o Options) error {
	seed := o.seed()
	hotpot := datasets.GenerateQA(o.scaleQA(datasets.Hotpot(seed)))
	twowiki := datasets.GenerateQA(o.scaleQA(datasets.TwoWiki(seed)))
	t := eval.Table{
		Title: "Table IV: Performance comparison on HotpotQA and 2WikiMultiHopQA",
		Headers: []string{"Method",
			"HotpotQA P", "HotpotQA R@5",
			"2WikiMHQA P", "2WikiMHQA R@5"},
	}
	for _, m := range tableIVMethods() {
		hp, hr, err := qaMethodCell(m, hotpot, seed)
		if err != nil {
			return fmt.Errorf("table4 %s hotpot: %w", m.Name(), err)
		}
		wp, wr, err := qaMethodCell(m, twowiki, seed)
		if err != nil {
			return fmt.Errorf("table4 %s 2wiki: %w", m.Name(), err)
		}
		t.AddRow(m.Name(), fmt.Sprintf("%.1f", hp), fmt.Sprintf("%.1f", hr),
			fmt.Sprintf("%.1f", wp), fmt.Sprintf("%.1f", wr))
	}
	hp, hr, err := qaMultiRAGCell(hotpot, seed)
	if err != nil {
		return fmt.Errorf("table4 multirag hotpot: %w", err)
	}
	wp, wr, err := qaMultiRAGCell(twowiki, seed)
	if err != nil {
		return fmt.Errorf("table4 multirag 2wiki: %w", err)
	}
	t.AddRow("MultiRAG", fmt.Sprintf("%.1f", hp), fmt.Sprintf("%.1f", hr),
		fmt.Sprintf("%.1f", wp), fmt.Sprintf("%.1f", wr))
	t.Fprint(o.Out)
	return nil
}
