package baselines

import (
	"math"
	"sort"

	"multirag/internal/kg"
)

// claim is the source-assertion view of a triple used by the pure
// data-fusion algorithms.
type claim struct {
	key    string // subject\x00predicate
	value  string // canonical value
	repr   string // surface form
	source string
}

// claimsOf lists every triple of g as a claim. It charges no fetches: a
// caller charges the accesses its protocol models.
func claimsOf(g *kg.Graph) []claim {
	ids := g.TripleIDs()
	out := make([]claim, 0, len(ids))
	for _, id := range ids {
		t, _ := g.Triple(id)
		out = append(out, claim{
			key:    g.Key(t),
			value:  kg.CanonicalID(t.Object),
			repr:   t.Object,
			source: t.Source,
		})
	}
	return out
}

// --- TruthFinder ---

// TruthFinder implements Yin et al.'s iterative trust/confidence fixpoint
// [37]. Following the on-demand comparison protocol of FusionQuery [34], the
// full-corpus iteration is charged to every query as a fetch of every claim —
// which is exactly why its time column dwarfs everything else in Table II.
// The fixpoint itself is a pure function of the corpus Setup binds, so Setup
// computes it once and each query reads it.
type TruthFinder struct {
	env *Env
	// Gamma is the confidence-score dampening factor; Rho the implication
	// weight between similar values (the classic parameters).
	Gamma, Rho float64
	Iterations int
	// conf is the fixpoint's per-(key, value) confidence; claims the
	// corpus's claim count, charged as fetches on every query.
	conf   map[string]map[string]float64
	claims int
}

// NewTruthFinder constructs the baseline with the classic parameters.
func NewTruthFinder() *TruthFinder {
	return &TruthFinder{Gamma: 0.3, Rho: 0.5, Iterations: 5}
}

// Name implements FusionMethod.
func (*TruthFinder) Name() string { return "TF" }

// Setup implements FusionMethod: the full-corpus fixpoint, run once.
func (t *TruthFinder) Setup(env *Env) {
	t.env = env
	claims := claimsOf(env.Graph)
	t.claims = len(claims)
	t.conf = t.run(claims)
}

// run executes the full iterative fusion over claims and returns
// per-(key,value) confidences.
func (t *TruthFinder) run(claims []claim) map[string]map[string]float64 {
	// sources asserting each (key,value); values per key.
	assert := map[string]map[string][]string{} // key → value → sources
	for _, c := range claims {
		if assert[c.key] == nil {
			assert[c.key] = map[string][]string{}
		}
		assert[c.key][c.value] = append(assert[c.key][c.value], c.source)
	}
	trust := map[string]float64{}
	for _, c := range claims {
		trust[c.source] = 0.8
	}
	conf := map[string]map[string]float64{}
	for iter := 0; iter < t.Iterations; iter++ {
		// Fact confidence from source trustworthiness.
		for key, values := range assert {
			if conf[key] == nil {
				conf[key] = map[string]float64{}
			}
			score := map[string]float64{}
			for v, sources := range values {
				var s float64
				for _, src := range sources {
					tr := trust[src]
					if tr > 0.999 {
						tr = 0.999
					}
					s += -math.Log(1 - tr)
				}
				score[v] = s
			}
			// Sum the implication terms in one fixed order, so the
			// confidences do not depend on map iteration.
			order := sortedValueKeys(score)
			for _, v := range order {
				adjusted := score[v]
				for _, v2 := range order {
					if v2 == v {
						continue
					}
					adjusted += t.Rho * valueSim(v, v2) * score[v2]
				}
				conf[key][v] = 1 / (1 + math.Exp(-t.Gamma*adjusted))
			}
		}
		// Source trust from fact confidence.
		sum := map[string]float64{}
		cnt := map[string]int{}
		for _, c := range claims {
			sum[c.source] += conf[c.key][c.value]
			cnt[c.source]++
		}
		for src := range trust {
			if cnt[src] > 0 {
				trust[src] = sum[src] / float64(cnt[src])
			}
		}
	}
	return conf
}

// valueSim is the implication similarity between two canonical values.
func valueSim(a, b string) float64 {
	if a == b {
		return 1
	}
	// Cheap token-overlap proxy.
	at := map[string]bool{}
	for _, tok := range splitWords(a) {
		at[tok] = true
	}
	bt := splitWords(b)
	if len(at) == 0 || len(bt) == 0 {
		return 0
	}
	hit := 0
	for _, tok := range bt {
		if at[tok] {
			hit++
		}
	}
	return float64(hit) / float64(len(at)+len(bt)-hit)
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if r == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// AnswerFusion implements FusionMethod: charged a fetch of every claim
// (on-demand protocol), it answers from the fixpoint with the values within
// 10% of the top confidence.
func (t *TruthFinder) AnswerFusion(queryText, entity, attribute string) []string {
	t.env.CountFetch(t.claims)
	return t.answer(t.conf, entity, attribute)
}

// answer reads entity's attribute values within 10% of the top confidence
// off conf.
func (t *TruthFinder) answer(conf map[string]map[string]float64, entity, attribute string) []string {
	key := kg.CanonicalID(entity) + "\x00" + attribute
	values := conf[key]
	if len(values) == 0 {
		return nil
	}
	repr := map[string]string{}
	for _, tr := range t.env.Graph.TriplesByKey(kg.CanonicalID(entity), attribute) {
		repr[kg.CanonicalID(tr.Object)] = tr.Object
	}
	best := 0.0
	for _, c := range values {
		if c > best {
			best = c
		}
	}
	var out []string
	keys := sortedValueKeys(values)
	for _, v := range keys {
		if values[v] >= 0.9*best {
			out = append(out, repr[v])
		}
	}
	return out
}

func sortedValueKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// --- LTM ---

// LTM implements a simplified latent truth model [42]: each (key, value)
// carries a latent truth probability; each source two error rates (false
// positive, false negative) estimated by EM at Setup. Unlike TruthFinder it
// naturally supports multi-truth facts.
type LTM struct {
	env        *Env
	Iterations int
	posterior  map[string]map[string]float64 // key → value → P(true)
	reprs      map[string]map[string]string
}

// NewLTM constructs the baseline.
func NewLTM() *LTM { return &LTM{Iterations: 8} }

// Name implements FusionMethod.
func (*LTM) Name() string { return "LTM" }

// Setup implements FusionMethod: batch EM over the full corpus.
func (l *LTM) Setup(env *Env) {
	l.env = env
	claims := claimsOf(env.Graph)
	env.CountFetch(len(claims))
	// Observation matrix: key → value → set of asserting sources; and the
	// set of sources covering each key at all.
	assert := map[string]map[string]map[string]bool{}
	coverage := map[string]map[string]bool{}
	l.reprs = map[string]map[string]string{}
	for _, c := range claims {
		if assert[c.key] == nil {
			assert[c.key] = map[string]map[string]bool{}
			coverage[c.key] = map[string]bool{}
			l.reprs[c.key] = map[string]string{}
		}
		if assert[c.key][c.value] == nil {
			assert[c.key][c.value] = map[string]bool{}
		}
		assert[c.key][c.value][c.source] = true
		coverage[c.key][c.source] = true
		l.reprs[c.key][c.value] = c.repr
	}
	post := map[string]map[string]float64{}
	for key, values := range assert {
		post[key] = map[string]float64{}
		for v := range values {
			post[key][v] = 0.5
		}
	}
	sens := map[string]float64{} // P(assert | true)
	fpr := map[string]float64{}  // P(assert | false)
	for _, c := range claims {
		sens[c.source] = 0.8
		fpr[c.source] = 0.2
	}
	for iter := 0; iter < l.Iterations; iter++ {
		// E step: posterior per (key,value) via naive Bayes over covering
		// sources.
		for key, values := range assert {
			for v, asserters := range values {
				logTrue, logFalse := math.Log(0.5), math.Log(0.5)
				for src := range coverage[key] {
					if asserters[src] {
						logTrue += math.Log(clampP(sens[src]))
						logFalse += math.Log(clampP(fpr[src]))
					} else {
						logTrue += math.Log(clampP(1 - sens[src]))
						logFalse += math.Log(clampP(1 - fpr[src]))
					}
				}
				m := math.Max(logTrue, logFalse)
				pt := math.Exp(logTrue - m)
				pf := math.Exp(logFalse - m)
				post[key][v] = pt / (pt + pf)
			}
		}
		// M step: source error rates from posteriors.
		var sumT, sumF, hitT, hitF map[string]float64
		sumT, sumF = map[string]float64{}, map[string]float64{}
		hitT, hitF = map[string]float64{}, map[string]float64{}
		for key, values := range assert {
			for v, asserters := range values {
				p := post[key][v]
				for src := range coverage[key] {
					sumT[src] += p
					sumF[src] += 1 - p
					if asserters[src] {
						hitT[src] += p
						hitF[src] += 1 - p
					}
				}
			}
		}
		for src := range sens {
			if sumT[src] > 0 {
				sens[src] = clampP((hitT[src] + 1) / (sumT[src] + 2)) // Beta(1,1) prior
			}
			if sumF[src] > 0 {
				fpr[src] = clampP((hitF[src] + 1) / (sumF[src] + 2))
			}
		}
	}
	l.posterior = post
}

func clampP(p float64) float64 {
	if p < 1e-6 {
		return 1e-6
	}
	if p > 1-1e-6 {
		return 1 - 1e-6
	}
	return p
}

// AnswerFusion implements FusionMethod: values with posterior above 0.5.
func (l *LTM) AnswerFusion(queryText, entity, attribute string) []string {
	key := kg.CanonicalID(entity) + "\x00" + attribute
	values := l.posterior[key]
	if len(values) == 0 {
		return nil
	}
	var out []string
	best := 0.0
	for _, p := range values {
		if p > best {
			best = p
		}
	}
	for _, v := range sortedValueKeys(values) {
		if values[v] > 0.5 || values[v] >= 0.95*best {
			out = append(out, l.reprs[key][v])
		}
	}
	return out
}

// --- FusionQuery ---

// FusionQuery implements the on-demand fusion protocol of Zhu et al. [34]:
// per query it fuses only the candidate set, maintaining per-source trust
// across queries. No LLM involvement, so it is the fastest baseline by far.
type FusionQuery struct {
	env   *Env
	trust map[string]float64
}

// NewFusionQuery constructs the baseline.
func NewFusionQuery() *FusionQuery { return &FusionQuery{trust: map[string]float64{}} }

// Name implements FusionMethod.
func (*FusionQuery) Name() string { return "FusionQuery" }

// Setup implements FusionMethod.
func (f *FusionQuery) Setup(env *Env) {
	f.env = env
	f.trust = map[string]float64{}
}

func (f *FusionQuery) sourceTrust(src string) float64 {
	if t, ok := f.trust[src]; ok {
		return t
	}
	return 0.6
}

// AnswerFusion implements FusionMethod: candidate-set EM with online trust
// update.
func (f *FusionQuery) AnswerFusion(queryText, entity, attribute string) []string {
	ts := f.env.Graph.TriplesByKey(kg.CanonicalID(entity), attribute)
	f.env.CountFetch(len(ts))
	if len(ts) == 0 {
		return nil
	}
	weight := map[string]float64{}
	repr := map[string]string{}
	srcsByValue := map[string][]string{}
	for _, t := range ts {
		key := kg.CanonicalID(t.Object)
		weight[key] += f.sourceTrust(t.Source) * t.Weight
		if _, ok := repr[key]; !ok {
			repr[key] = t.Object
		}
		srcsByValue[key] = append(srcsByValue[key], t.Source)
	}
	best := 0.0
	for _, w := range weight {
		if w > best {
			best = w
		}
	}
	var out []string
	accepted := map[string]bool{}
	for _, v := range sortedValueKeys(weight) {
		if weight[v] >= 0.6*best {
			out = append(out, repr[v])
			accepted[v] = true
		}
	}
	// Online trust update: sources agreeing with accepted values drift up,
	// disagreeing ones drift down.
	for v, srcs := range srcsByValue {
		delta := -0.05
		if accepted[v] {
			delta = 0.05
		}
		for _, src := range srcs {
			nt := f.sourceTrust(src) + delta
			if nt < 0.05 {
				nt = 0.05
			}
			if nt > 0.99 {
				nt = 0.99
			}
			f.trust[src] = nt
		}
	}
	return out
}

var _ = []FusionMethod{(*TruthFinder)(nil), (*LTM)(nil), (*FusionQuery)(nil)}
