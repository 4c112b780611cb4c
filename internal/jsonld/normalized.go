package jsonld

import (
	"fmt"
	"unicode/utf8"

	"multirag/internal/textutil"
)

// Normalized is the unified record D̂ = {id, d, name, jsc, meta, cols_index}
// of Definition 1: the output of multi-source data fusion. One Normalized
// value describes one ingested data file after its adapter has parsed it.
// The column index (cols_index) is not built: extraction walks every record
// of a file in order, so nothing would read it.
type Normalized struct {
	// ID is the unique normalisation identifier, derived deterministically
	// from (domain, source, name).
	ID string
	// Domain is d — the domain the data file belongs to (e.g. "movies").
	Domain string
	// Source names the originating data source (e.g. "imdb", "src-03").
	Source string
	// Name is the file or attribute name.
	Name string
	// Format records the original storage format ("csv", "json", "xml",
	// "kg", "text").
	Format string
	// Meta is the file metadata (free-form key/value).
	Meta map[string]string
	// JSC holds the file content as JSON-LD linked-data documents
	// (one per record).
	JSC []*Document
}

// NormalizedID derives the stable identifier for a (domain, source, name)
// triple. It spells out at most idPartBytes of each; the hash of all three
// whole keeps the IDs of files whose identifiers share those prefixes apart.
func NormalizedID(domain, source, name string) string {
	h := textutil.Hash64(domain)
	for _, part := range [...]string{"\x00", source, "\x00", name} {
		h = textutil.HashAdd(h, part)
	}
	var buf [3*idPartBytes + 2 + 1 + 16]byte
	id := append(buf[:0], clipID(domain)...)
	id = append(append(id, '/'), clipID(source)...)
	id = append(append(id, '/'), clipID(name)...)
	return string(appendHash(id, h))
}

// SpellKey returns key as a record ID or a nested record's key spells it:
// key itself if it is at most idPartBytes long, else its first idPartBytes
// (cut at a rune boundary), then the hash of the whole key, as NormalizedID
// spells an identifier. A list of records under a long key then costs a
// short key per record, not a copy of the long one, a nested record's ID
// grows by a bounded amount per level, and so does every property path
// extraction and chunk rendering build through it.
func SpellKey(key string) string {
	if len(key) <= idPartBytes {
		return key
	}
	var buf [idPartBytes + 1 + 16]byte
	return string(appendHash(append(buf[:0], clipID(key)...), textutil.Hash64(key)))
}

// appendHash appends '#' and h as 16 lower-case hex digits.
func appendHash(dst []byte, h uint64) []byte {
	dst = append(dst, '#')
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[h>>shift&0xf])
	}
	return dst
}

// idPartBytes bounds what NormalizedID spells out of each identifier: every
// record ID starts with its file's ID and the engine keeps a few copies of
// each, so the file's ID is paid once per row. Real identifiers (34 bytes at
// most in the datasets presets and the benchmark corpus) are spelled out whole.
const idPartBytes = 64

// clipID returns s cut to at most idPartBytes bytes, at a rune boundary.
func clipID(s string) string {
	if len(s) <= idPartBytes {
		return s
	}
	i := idPartBytes
	for i > 0 && !utf8.RuneStart(s[i]) {
		i--
	}
	return s[:i]
}

// Validate checks the structural invariant of a Normalized value: non-empty
// identity fields.
func (n *Normalized) Validate() error {
	if n.ID == "" || n.Domain == "" || n.Name == "" {
		return fmt.Errorf("jsonld: normalized record missing identity (id=%q domain=%q name=%q)",
			n.ID, n.Domain, n.Name)
	}
	return nil
}
