package adapter

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

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

// csvInput is a pooled buffered reader over a file's content. csv.NewReader
// reads a *bufio.Reader as it is, so a file parsed through one allocates no
// read buffer of its own.
type csvInput struct {
	content bytes.Reader
	buf     *bufio.Reader
}

var csvInputs = sync.Pool{New: func() any {
	in := new(csvInput)
	in.buf = bufio.NewReader(&in.content)
	return in
}}

// Parse implements Adapter. Rows are read one at a time into one reused
// field slice, and a full row's properties set in the order columnOrder sorts
// the header into once.
func (Structured) Parse(f RawFile) (*jsonld.Normalized, error) {
	in := csvInputs.Get().(*csvInput)
	in.content.Reset(f.Content)
	in.buf.Reset(&in.content)
	defer func() {
		in.content.Reset(nil) // the pooled reader pins no file
		csvInputs.Put(in)
	}()
	cr := csv.NewReader(in.buf)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err == io.EOF {
		return nil, errors.New("csv parse: empty file")
	}
	if err != nil {
		return nil, fmt.Errorf("csv parse: %w", err)
	}
	header := slices.Clone(rec)
	if len(header) < 2 {
		return nil, fmt.Errorf("csv parse: need a key column plus at least one attribute, got %d columns", len(header))
	}
	order, err := columnOrder(header, f.Name)
	if err != nil {
		return nil, err
	}
	r := getFlat()
	defer putFlat(r)
	n := newNormalized(f)
	for row := 0; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csv parse: %w", err)
		}
		if len(rec) > len(header) {
			return nil, fmt.Errorf("csv parse: row %d has %d fields, header has %d", row+1, len(rec), len(header))
		}
		from := len(r.open)
		if len(rec) == len(header) {
			for _, c := range order {
				switch {
				case c == 0:
					r.open = append(r.open, rprop{key: "@key", str: rec[0]})
				case rec[c] != "":
					r.open = append(r.open, rprop{key: header[c], str: rec[c]})
				}
			}
		} else {
			// A short row costs its own length, not the header's: its fields
			// go in column order, and closeDoc sorts them.
			r.open = append(r.open, rprop{key: "@key", str: rec[0]})
			for c := 1; c < len(rec); c++ {
				if rec[c] != "" {
					r.open = append(r.open, rprop{key: header[c], str: rec[c]})
				}
			}
		}
		lo, hi := r.newID(n.ID, "row", row)
		r.top = append(r.top, r.closeDoc("Record", lo, hi, from))
	}
	r.finish(n)
	return n, nil
}

// columnOrder checks that header names no column twice and returns the order
// a row's properties are set in: the column indexes sorted by name, where 0,
// the key column, stands for "@key" and sorts before a column of that name,
// which then overwrites it. Sorting finds a repeated name, too: of the
// columns whose name an earlier one has, the error names the first.
func columnOrder(header []string, table string) ([]int, error) {
	cols := make([]int, len(header))
	for i := range cols {
		cols[i] = i
	}
	slices.SortFunc(cols, func(a, b int) int {
		return cmp.Or(strings.Compare(header[a], header[b]), a-b)
	})
	dup := len(header)
	for i := 1; i < len(cols); i++ {
		if header[cols[i]] == header[cols[i-1]] {
			dup = min(dup, cols[i])
		}
	}
	if dup < len(header) {
		return nil, fmt.Errorf("csv parse: duplicate column %.64q in table %.64q", header[dup], table)
	}
	k := slices.Index(cols, 0)
	cols = slices.Delete(cols, k, k+1)
	at, _ := slices.BinarySearchFunc(cols, "@key", func(c int, key string) int { return strings.Compare(header[c], key) })
	return slices.Insert(cols, at, 0), nil
}
