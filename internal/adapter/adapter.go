// Package adapter implements the multi-source data fusion front-end of
// MultiRAG (§III-B, Eq. 2): one adapter per storage format transforms raw
// files into the normalised JSON-LD representation of Definition 1, and Fuse
// computes D_Fusion = ⋃ᵢ Aᵢ(Dᵢ) over a heterogeneous file set.
//
// Four formats are supported, matching the paper's dataset preprocessing:
// "csv" (structured, stored through the DSM columnar model with column
// indexes), "json" and "xml" (semi-structured, nested linked-data trees),
// "kg" (native triples) and "text" (unstructured, handed to the LLM
// extractor downstream).
package adapter

import (
	"fmt"
	"sort"

	"multirag/internal/jsonld"
	"multirag/internal/par"
)

// RawFile is one ingested data file before adaptation.
type RawFile struct {
	Domain  string            // d: the data domain ("movies", "flights", ...)
	Source  string            // originating source name ("src-03", "imdb")
	Name    string            // file / attribute name
	Format  string            // "csv", "json", "xml", "kg", "text"
	Meta    map[string]string // file metadata
	Content []byte            // file content
}

// Adapter parses one storage format into the normalised representation.
type Adapter interface {
	// Format returns the format key this adapter handles.
	Format() string
	// Parse transforms the raw file into normalised linked data.
	Parse(f RawFile) (*jsonld.Normalized, error)
}

// Registry maps formats to adapters.
type Registry struct {
	adapters map[string]Adapter
}

// NewRegistry returns a registry pre-loaded with the four standard adapters.
func NewRegistry() *Registry {
	r := &Registry{adapters: map[string]Adapter{}}
	r.Register(Structured{})
	r.Register(SemiJSON{})
	r.Register(SemiXML{})
	r.Register(Unstructured{})
	r.Register(KGFormat{})
	return r
}

// Register installs an adapter, replacing any previous adapter for the same
// format.
func (r *Registry) Register(a Adapter) { r.adapters[a.Format()] = a }

// Lookup returns the adapter for a format.
func (r *Registry) Lookup(format string) (Adapter, bool) {
	a, ok := r.adapters[format]
	return a, ok
}

// Fuse implements Eq. (2): it routes every file through its format adapter
// and returns the union of the normalised outputs, ordered deterministically
// by (domain, source, name). An unknown format is an error — silent data loss
// during fusion would invalidate every downstream confidence estimate.
func (r *Registry) Fuse(files []RawFile) ([]*jsonld.Normalized, error) {
	return r.FuseParallel(files, 1)
}

// FuseParallel is Fuse with per-file adaptation fanned out across a bounded
// worker pool (workers == 1 runs inline, <= 0 selects GOMAXPROCS). Adapters
// are stateless, so parsing
// different files concurrently is safe; output ordering and error selection
// (first failing file in input order) are identical to the serial path.
func (r *Registry) FuseParallel(files []RawFile, workers int) ([]*jsonld.Normalized, error) {
	out := make([]*jsonld.Normalized, len(files))
	errs := make([]error, len(files))
	adapt := func(i int) {
		f := files[i]
		a, ok := r.adapters[f.Format]
		if !ok {
			errs[i] = fmt.Errorf("adapter: no adapter registered for format %.64q (file %.64q/%.64q/%.64q)",
				f.Format, f.Domain, f.Source, f.Name)
			return
		}
		n, err := a.Parse(f)
		if err != nil {
			errs[i] = fmt.Errorf("adapter: %s file %.64q/%.64q/%.64q: %w", f.Format, f.Domain, f.Source, f.Name, err)
			return
		}
		if err := n.Validate(); err != nil {
			errs[i] = fmt.Errorf("adapter: %s file %.64q/%.64q/%.64q produced invalid output: %w",
				f.Format, f.Domain, f.Source, f.Name, err)
			return
		}
		out[i] = n
	}
	par.ForEach(workers, len(files), adapt)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// newNormalized fills the identity fields shared by all adapters.
func newNormalized(f RawFile) *jsonld.Normalized {
	meta := map[string]string{}
	for k, v := range f.Meta {
		meta[k] = v
	}
	return &jsonld.Normalized{
		ID:     jsonld.NormalizedID(f.Domain, f.Source, f.Name),
		Domain: f.Domain,
		Source: f.Source,
		Name:   f.Name,
		Format: f.Format,
		Meta:   meta,
	}
}
