package datasets

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"multirag/internal/adapter"
)

// Generate materialises a fusion dataset from its spec: gold truth,
// per-source claims (with reliability, coverage and copying), files in each
// source's storage format, and the query workload. The output is fully
// deterministic in spec.Seed. A source with an unknown storage format is an
// error. MustGenerate is the panicking convenience for code-defined specs.
func Generate(spec Spec) (*Dataset, error) {
	rng := rand.New(rand.NewSource(int64(spec.Seed)))
	d := &Dataset{Spec: spec, Gold: map[string][]string{}}

	// 1. Entities with unique names.
	entities := make([]string, 0, spec.Entities)
	seen := map[string]bool{}
	for i := 0; i < spec.Entities; i++ {
		name := entityName(rng, spec.Domain)
		if seen[normName(name)] {
			name = fmt.Sprintf("%s %d", name, i)
		}
		seen[normName(name)] = true
		entities = append(entities, name)
	}

	// 2. Gold truth and per-fact wrong-value pools.
	pool := map[string][]string{} // GoldKey → plausible wrong values
	for _, ent := range entities {
		for _, attr := range spec.Attributes {
			key := GoldKey(ent, attr.Name)
			gold := []string{genValue(rng, attr.Kind)}
			if attr.MultiProb > 0 && rng.Float64() < attr.MultiProb {
				second := genValue(rng, attr.Kind)
				if normName(second) != normName(gold[0]) {
					gold = append(gold, second)
				}
			}
			d.Gold[key] = gold
			n := spec.ConflictPool
			if n <= 0 {
				n = 3
			}
			wrongs := make([]string, 0, n)
			for len(wrongs) < n {
				w := genValue(rng, attr.Kind)
				if !containsNorm(gold, w) && !containsNorm(wrongs, w) {
					wrongs = append(wrongs, w)
				}
			}
			pool[key] = wrongs
		}
	}

	// 3. Claims per source. Copying sources replicate their parent's claims
	// (errors included) — the redundancy pathology.
	claimsBySource := map[string][]Claim{}
	for _, src := range spec.Sources {
		if src.CopyOf != "" {
			parent := claimsBySource[src.CopyOf]
			copied := make([]Claim, len(parent))
			for i, c := range parent {
				c.Source = src.Name
				copied[i] = c
			}
			claimsBySource[src.Name] = copied
			continue
		}
		var claims []Claim
		for _, ent := range entities {
			// Each source renders the entity under one consistent surface
			// form; with probability VariantRate that form is a variant only
			// entity standardisation can resolve.
			surface := ent
			if spec.VariantRate > 0 && rng.Float64() < spec.VariantRate {
				surface = variantSurface(rng, ent, spec.Domain)
			}
			for _, attr := range spec.Attributes {
				if rng.Float64() >= src.Coverage {
					continue
				}
				key := GoldKey(ent, attr.Name)
				if rng.Float64() < src.Reliability {
					for _, v := range d.Gold[key] {
						claims = append(claims, Claim{Entity: surface, Attribute: attr.Name, Value: v, Source: src.Name, Correct: true})
					}
				} else {
					wrongs := pool[key]
					v := wrongs[rng.Intn(len(wrongs))]
					claims = append(claims, Claim{Entity: surface, Attribute: attr.Name, Value: v, Source: src.Name, Correct: false})
				}
			}
		}
		claimsBySource[src.Name] = claims
	}
	for _, src := range spec.Sources {
		d.Claims = append(d.Claims, claimsBySource[src.Name]...)
	}

	// 4. Materialise files.
	for _, src := range spec.Sources {
		f, err := materialise(spec, src, claimsBySource[src.Name])
		if err != nil {
			return nil, fmt.Errorf("datasets: generate %s: %w", spec.Name, err)
		}
		d.Files = append(d.Files, f)
	}

	// 5. Query workload: answerable facts (at least one correct claim).
	answerable := map[string]bool{}
	for _, c := range d.Claims {
		if c.Correct {
			answerable[GoldKey(c.Entity, c.Attribute)] = true
		}
	}
	type fact struct{ ent, attr string }
	var facts []fact
	for _, ent := range entities {
		for _, attr := range spec.Attributes {
			if answerable[GoldKey(ent, attr.Name)] {
				facts = append(facts, fact{ent, attr.Name})
			}
		}
	}
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	n := spec.Queries
	if n > len(facts) {
		n = len(facts)
	}
	for i := 0; i < n; i++ {
		fa := facts[i]
		d.Queries = append(d.Queries, Query{
			ID:        fmt.Sprintf("%s-q%03d", spec.Name, i),
			Text:      fmt.Sprintf("What is the %s of %s?", strings.ReplaceAll(fa.attr, "_", " "), fa.ent),
			Entity:    fa.ent,
			Attribute: fa.attr,
			Gold:      d.Gold[GoldKey(fa.ent, fa.attr)],
		})
	}
	return d, nil
}

// MustGenerate is Generate for specs that are known-good by construction
// (the built-in Table I specs, test fixtures); it panics on error.
func MustGenerate(spec Spec) *Dataset {
	d, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return d
}

func entityName(rng *rand.Rand, domain string) string {
	switch domain {
	case "flights":
		return flightName(rng)
	case "stocks":
		return tickerName(rng)
	default:
		return titleName(rng)
	}
}

func containsNorm(haystack []string, needle string) bool {
	n := normName(needle)
	for _, h := range haystack {
		if normName(h) == n {
			return true
		}
	}
	return false
}

// materialise renders one source's claims into its storage format. An
// unknown format in the source spec is an error: specs can be assembled from
// CLI input, so a typo must surface as a message, not a stack trace.
func materialise(spec Spec, src SourceSpec, claims []Claim) (adapter.RawFile, error) {
	f := adapter.RawFile{
		Domain: spec.Domain,
		Source: src.Name,
		Name:   src.Name + "-data",
		Format: src.Format,
		Meta:   map[string]string{"generator": "multirag-synthetic", "dataset": spec.Name},
	}
	// Group claims per entity preserving claim order; group values per attr.
	byEnt := map[string]*entData{}
	var order []string
	for _, c := range claims {
		key := normName(c.Entity)
		ed, ok := byEnt[key]
		if !ok {
			ed = &entData{name: c.Entity, attrs: map[string][]string{}}
			byEnt[key] = ed
			order = append(order, key)
		}
		ed.attrs[c.Attribute] = append(ed.attrs[c.Attribute], c.Value)
	}
	header := make([]string, len(spec.Attributes))
	for i, a := range spec.Attributes {
		header[i] = a.Name
	}
	switch src.Format {
	case "csv":
		f.Content = renderCSV(byEnt, order, header)
	case "json":
		f.Content = renderJSON(byEnt, order)
	case "xml":
		f.Content = renderXML(byEnt, order)
	case "kg":
		f.Content = renderKG(byEnt, order)
	case "text":
		f.Content = renderText(byEnt, order)
	default:
		return adapter.RawFile{}, fmt.Errorf("datasets: source %s: unknown format %q (want csv/json/xml/kg/text)", src.Name, src.Format)
	}
	return f, nil
}

// entData groups one entity's claimed values per attribute within a source.
type entData struct {
	name  string
	attrs map[string][]string
}

// renderCSV renders wide-format CSV: the first column is the entity name,
// the remaining columns the dataset attributes. An entity with k claimed
// values for some attribute occupies k rows; secondary rows carry only the
// extra values (other cells empty), which the DSM adapter treats as missing.
func renderCSV(byEnt map[string]*entData, order, attrs []string) []byte {
	var sb strings.Builder
	sb.WriteString("name")
	for _, a := range attrs {
		sb.WriteString("," + a)
	}
	sb.WriteString("\n")
	for _, key := range order {
		ed := byEnt[key]
		rows := 1
		for _, a := range attrs {
			if len(ed.attrs[a]) > rows {
				rows = len(ed.attrs[a])
			}
		}
		for r := 0; r < rows; r++ {
			sb.WriteString(csvEscape(ed.name))
			for _, a := range attrs {
				sb.WriteString(",")
				vals := ed.attrs[a]
				if r < len(vals) {
					sb.WriteString(csvEscape(vals[r]))
				}
			}
			sb.WriteString("\n")
		}
	}
	return []byte(sb.String())
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func renderJSON(byEnt map[string]*entData, order []string) []byte {
	var records []map[string]any
	for _, key := range order {
		ed := byEnt[key]
		rec := map[string]any{"name": ed.name}
		attrs := sortedKeys(ed.attrs)
		for _, a := range attrs {
			vals := ed.attrs[a]
			if len(vals) == 1 {
				rec[a] = vals[0]
			} else {
				rec[a] = vals
			}
		}
		records = append(records, rec)
	}
	data, err := json.Marshal(records)
	if err != nil {
		panic(fmt.Sprintf("datasets: render json: %v", err))
	}
	return data
}

func renderXML(byEnt map[string]*entData, order []string) []byte {
	var sb strings.Builder
	sb.WriteString("<records>\n")
	for _, key := range order {
		ed := byEnt[key]
		sb.WriteString("  <record>\n")
		fmt.Fprintf(&sb, "    <name>%s</name>\n", xmlEscape(ed.name))
		for _, a := range sortedKeys(ed.attrs) {
			for _, v := range ed.attrs[a] {
				fmt.Fprintf(&sb, "    <%s>%s</%s>\n", a, xmlEscape(v), a)
			}
		}
		sb.WriteString("  </record>\n")
	}
	sb.WriteString("</records>\n")
	return []byte(sb.String())
}

func xmlEscape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

func renderKG(byEnt map[string]*entData, order []string) []byte {
	var sb strings.Builder
	for _, key := range order {
		ed := byEnt[key]
		for _, a := range sortedKeys(ed.attrs) {
			for _, v := range ed.attrs[a] {
				fmt.Fprintf(&sb, "%s|%s|%s\n", ed.name, a, v)
			}
		}
	}
	return []byte(sb.String())
}

func renderText(byEnt map[string]*entData, order []string) []byte {
	var paras []string
	for _, key := range order {
		ed := byEnt[key]
		var sents []string
		for _, a := range sortedKeys(ed.attrs) {
			attrWords := strings.ReplaceAll(a, "_", " ")
			for _, v := range ed.attrs[a] {
				sents = append(sents, fmt.Sprintf("The %s of %s is %s.", attrWords, ed.name, v))
			}
		}
		paras = append(paras, strings.Join(sents, " "))
	}
	return []byte(strings.Join(paras, "\n\n"))
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
