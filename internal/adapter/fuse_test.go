package adapter_test

import (
	"fmt"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
)

// recordsFile is a file of the given format holding records records, each
// with a few properties and, in the nested formats, a two-value list.
func recordsFile(format string, records int) adapter.RawFile {
	var b strings.Builder
	switch format {
	case "csv":
		b.WriteString("name,status,gate,departure_time\n")
		for i := range records {
			fmt.Fprintf(&b, "Flight CA%d,Delayed,G%d,10:%02d\n", 900+i, i%13, i%60)
		}
	case "json":
		b.WriteByte('[')
		for i := range records {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"name":"Flight CA%d","status":"Delayed","gate":"G%d","stops":["PEK","JFK"]}`, 900+i, i%13)
		}
		b.WriteByte(']')
	case "xml":
		b.WriteString("<records>\n")
		for i := range records {
			fmt.Fprintf(&b, "  <record><name>Flight CA%d</name><status>Delayed</status><gate>G%d</gate><stop>PEK</stop><stop>JFK</stop></record>\n", 900+i, i%13)
		}
		b.WriteString("</records>\n")
	case "kg":
		for i := range records {
			fmt.Fprintf(&b, "Flight CA%d|status|Delayed\n", 900+i)
		}
	case "text":
		for i := range records {
			fmt.Fprintf(&b, "The status of Flight CA%d is Delayed. The gate of Flight CA%d is G%d.\n\n", 900+i, 900+i, i%13)
		}
	}
	return adapter.RawFile{Domain: "flights", Source: "radar", Name: "feed", Format: format, Content: []byte(b.String())}
}

// TestFuseAllocCeiling: fusing a file allocates a few objects per file, not
// per record, beyond what a format's reader makes: encoding/csv's string per
// row and encoding/xml's objects per token. The bound is on the objects a
// 200-record file takes beyond a 2-record one, per record, as measured
// (x86-64, Go 1.24): csv 1, json 0, xml 42, kg 0, text 0, with 28, 12, 110,
// 11 and 11 objects for the 2-record files. While each adapter built a
// generic decode tree and a map per record, the same files took 7.07, 32.07,
// 89.11, 6.04 and 5.04 objects a record (44, 85, 213, 27 and 25 for 2).
func TestFuseAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	bounds := map[string]float64{"csv": 1, "json": 0, "xml": 42, "kg": 0, "text": 0}
	reg := adapter.NewRegistry()
	for _, format := range []string{"csv", "json", "xml", "kg", "text"} {
		measure := func(records int) float64 {
			files := []adapter.RawFile{recordsFile(format, records)}
			out, err := reg.Fuse(files)
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			if len(out[0].JSC) != records {
				t.Fatalf("%s: %d records, want %d", format, len(out[0].JSC), records)
			}
			return testing.AllocsPerRun(20, func() { reg.Fuse(files) })
		}
		small, large := measure(2), measure(200)
		perRecord := (large - small) / 198
		t.Logf("%s: 2 records %.0f objects, 200 records %.0f, %.2f a record", format, small, large, perRecord)
		if perRecord > bounds[format]+0.05 {
			t.Errorf("%s: %.2f objects a record, over the %.0f bound", format, perRecord, bounds[format])
		}
	}
}

// BenchmarkFuse fuses every datasets file of one format per op: the presets'
// sources at seed 1, and for text the HotpotQA corpus's documents.
func BenchmarkFuse(b *testing.B) {
	var files []adapter.RawFile
	for _, spec := range datasets.AllPresets(1) {
		files = append(files, datasets.MustGenerate(spec).Files...)
	}
	for _, doc := range datasets.GenerateQA(datasets.Hotpot(1)).Docs {
		files = append(files, adapter.RawFile{Domain: "wiki", Source: doc.Source, Name: doc.ID, Format: "text", Content: []byte(doc.Text)})
	}
	reg := adapter.NewRegistry()
	for _, format := range []string{"csv", "json", "xml", "kg", "text"} {
		var of []adapter.RawFile
		bytes := 0
		for _, f := range files {
			if f.Format == format {
				of = append(of, f)
				bytes += len(f.Content)
			}
		}
		b.Run(format, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			for range b.N {
				if _, err := reg.Fuse(of); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
