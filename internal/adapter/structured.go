package adapter

import (
	"bytes"
	"encoding/csv"
	"fmt"

	"multirag/internal/jsonld"
)

// Structured adapts tabular CSV data. Per §III-B, tabular information is
// stored in JSON(-LD), one document per row, so that all attribute
// information can be extracted for consistency checks.
//
// Convention: the first CSV column names the entity each row describes;
// remaining columns are its attributes.
type Structured struct{}

// Format implements Adapter.
func (Structured) Format() string { return "csv" }

// Parse implements Adapter.
func (Structured) Parse(f RawFile) (*jsonld.Normalized, error) {
	r := csv.NewReader(bytes.NewReader(f.Content))
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv parse: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csv parse: empty file")
	}
	header := records[0]
	if len(header) < 2 {
		return nil, fmt.Errorf("csv parse: need a key column plus at least one attribute, got %d columns", len(header))
	}
	for i, c := range header {
		for _, prev := range header[:i] {
			if c == prev {
				return nil, fmt.Errorf("csv parse: duplicate column %.64q in table %.64q", c, f.Name)
			}
		}
	}
	n := newNormalized(f)
	for rowNum, rec := range records[1:] {
		if len(rec) > len(header) {
			return nil, fmt.Errorf("csv parse: row %d has %d fields, header has %d", rowNum+1, len(rec), len(header))
		}
		key := ""
		if len(rec) > 0 {
			key = rec[0]
		}
		doc := jsonld.New(fmt.Sprintf("%s/row/%d", n.ID, rowNum), "Record")
		doc.Set("@key", key)
		for i := 1; i < len(rec) && i < len(header); i++ {
			if rec[i] != "" {
				doc.Set(header[i], rec[i])
			}
		}
		n.JSC = append(n.JSC, doc)
	}
	return n, nil
}
