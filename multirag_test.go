package multirag

import (
	"strings"
	"testing"
)

func flightFiles() []File {
	return []File{
		{Domain: "flights", Source: "airport-api", Name: "schedule", Format: "csv",
			Content: []byte("flight,origin,destination,status\nCA981,PEK,JFK,Delayed\n")},
		{Domain: "flights", Source: "airline-app", Name: "live", Format: "json",
			Content: []byte(`[{"flight":"CA981","status":"Delayed","delay_reason":"Typhoon"}]`)},
		{Domain: "flights", Source: "weather-feed", Name: "alerts", Format: "text",
			Content: []byte("The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.")},
		{Domain: "flights", Source: "forum-user", Name: "posts", Format: "text",
			Content: []byte("The status of CA981 is On time.")},
	}
}

func TestOpenIngestAsk(t *testing.T) {
	sys := Open(Config{Seed: 3})
	if err := sys.IngestFiles(flightFiles()...); err != nil {
		t.Fatalf("IngestFiles: %v", err)
	}
	ans := sys.Ask("What is the status of CA981?")
	if !ans.Found {
		t.Fatal("answer not found")
	}
	if len(ans.Values) != 1 || !strings.EqualFold(ans.Values[0], "delayed") {
		t.Fatalf("Values = %v, want [Delayed]", ans.Values)
	}
	if ans.Rejected == 0 {
		t.Fatal("the conflicting forum claim must be rejected")
	}
	if ans.Intent != "attribute_lookup" {
		t.Fatalf("intent = %q", ans.Intent)
	}
	for _, ev := range ans.Trusted {
		if ev.Source == "forum-user" {
			t.Fatal("forum evidence must not be trusted")
		}
		if ev.Confidence <= 0 {
			t.Fatalf("evidence confidence = %v", ev.Confidence)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	sys := Open(Config{})
	if err := sys.IngestFiles(File{Domain: "d"}); err == nil {
		t.Fatal("incomplete file must be rejected")
	}
	// The rejection names the missing fields and the file, never its
	// content: it is a front door's 400 body, short whatever the file's size.
	content := []byte(strings.Repeat("payload!", 1<<17))
	err := sys.IngestFiles(File{Domain: "flights", Source: "airport-api", Format: "text", Content: content})
	if err == nil {
		t.Fatal("file with no Name was accepted")
	}
	if msg := err.Error(); len(msg) > 256 || strings.Contains(msg, "payload") {
		t.Fatalf("1 MiB file with no Name: the %d-byte error echoes its content: %.200s", len(msg), msg)
	}
	for _, part := range []string{"Name", `"flights"`, `"airport-api"`} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q does not name %s", err, part)
		}
	}
	if err := sys.IngestFiles(File{Domain: "d", Source: "s", Name: "n", Format: "json", Content: []byte("{bad")}); err == nil {
		t.Fatal("parse errors must propagate")
	}
}

// TestIngestErrorsAreBounded: a rejection that quotes the file — its
// identity, a malformed kg line, a repeated CSV column, an XML syntax error —
// quotes a bounded excerpt, so a 1 MiB input yields a short error: it is a
// front door's 400 body. The identity case uses the longest identifiers the
// facade accepts, so the adapter's own excerpt is what bounds it.
func TestIngestErrorsAreBounded(t *testing.T) {
	const size = 1 << 20
	ident := strings.Repeat("i", maxIdentifierBytes)
	col := strings.Repeat("c", size/2)
	cases := []struct {
		name string
		f    File
	}{
		{"identity of an unknown format", File{Domain: ident, Source: ident, Name: ident, Format: "zip", Content: []byte("x")}},
		{"kg line", File{Domain: "d", Source: "s", Name: "n", Format: "kg", Content: []byte(strings.Repeat("k", size))}},
		{"csv column", File{Domain: "d", Source: "s", Name: "n", Format: "csv", Content: []byte("key," + col + "," + col + "\nk,1,2\n")}},
		{"xml element", File{Domain: "d", Source: "s", Name: "n", Format: "xml", Content: []byte("<" + strings.Repeat("e", size) + "></b>")}},
	}
	sys := Open(Config{})
	for _, c := range cases {
		err := sys.IngestFiles(c.f)
		if err == nil {
			t.Fatalf("%s: the file was accepted", c.name)
		}
		if n := len(err.Error()); n > 512 {
			t.Fatalf("%s: %d-byte error: %.200s", c.name, n, err)
		}
	}
}

// TestIngestRejectsOverlongIdentifiers: a file whose Domain, Source, Name,
// Format or a Meta key or value is over maxIdentifierBytes is rejected with a
// short error naming the field, before any adapter formats it into row IDs;
// one at the limit is accepted.
func TestIngestRejectsOverlongIdentifiers(t *testing.T) {
	huge := strings.Repeat("n", 1<<20)
	base := File{Domain: "flights", Source: "gate-feed", Name: "gates", Format: "kg", Content: []byte("CA981|gate|G12\n")}
	cases := []struct {
		field string
		edit  func(f *File)
	}{
		{"Domain", func(f *File) { f.Domain = huge }},
		{"Source", func(f *File) { f.Source = huge }},
		{"Name", func(f *File) { f.Name = huge }},
		{"Format", func(f *File) { f.Format = huge }},
		{"Meta key", func(f *File) { f.Meta = map[string]string{huge: "v"} }},
		{"Meta value", func(f *File) { f.Meta = map[string]string{"k": huge} }},
	}
	sys := Open(Config{})
	for _, c := range cases {
		f := base
		c.edit(&f)
		err := sys.IngestFiles(f)
		if err == nil {
			t.Fatalf("file with a 1 MiB %s was accepted", c.field)
		}
		if msg := err.Error(); len(msg) > 512 || !strings.Contains(msg, c.field) {
			t.Fatalf("1 MiB %s: %d-byte error does not name the field: %.200s", c.field, len(msg), msg)
		}
	}
	atLimit := base
	atLimit.Name = strings.Repeat("n", maxIdentifierBytes)
	atLimit.Meta = map[string]string{"k": strings.Repeat("v", maxIdentifierBytes)}
	if err := sys.IngestFiles(atLimit); err != nil {
		t.Fatalf("identifiers of exactly %d bytes: %v", maxIdentifierBytes, err)
	}
}

// TestReplicaSetNeedsOpenDurable: replicas read the primary's write-ahead
// log, so a replica set over an in-memory System is refused by name, and one
// over a durable System serves the primary's answer.
func TestReplicaSetNeedsOpenDurable(t *testing.T) {
	if _, err := NewReplicaSet(Open(Config{}), ReplicaSetConfig{}); err == nil || !strings.Contains(err.Error(), "OpenDurable") {
		t.Fatalf("NewReplicaSet on an in-memory System: %v, want an error naming OpenDurable", err)
	}
	sys, _, err := OpenDurable(t.TempDir(), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.IngestFiles(flightFiles()...); err != nil {
		t.Fatal(err)
	}
	set, err := NewReplicaSet(sys, ReplicaSetConfig{Replicas: 1})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	defer set.Close()
	got := set.Replicas()[0].AskEach(nil, []string{"What is the status of CA981?"})[0]
	if want := sys.Ask("What is the status of CA981?"); len(got.Values) != 1 || got.Values[0] != want.Values[0] {
		t.Fatalf("replica answered %v, primary %v", got.Values, want.Values)
	}
	if st := set.Status()[0]; st.State != "live" || st.AppliedLSN != set.CommittedLSN() || st.DroppedFrames != 0 {
		t.Fatalf("replica status %+v", st)
	}
}

func TestStats(t *testing.T) {
	sys := Open(Config{})
	if err := sys.IngestFiles(flightFiles()...); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Entities == 0 || st.Triples == 0 || st.Chunks == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.HomologousNodes == 0 {
		t.Fatal("homologous aggregation missing")
	}
	if st.BuildTime <= 0 {
		t.Fatal("build time not recorded")
	}
	// BuildTime is the modelled extraction cost, not a stopwatch: a second
	// system that ingests the same files reports it to the nanosecond.
	again := Open(Config{})
	if err := again.IngestFiles(flightFiles()...); err != nil {
		t.Fatal(err)
	}
	if got := again.Stats().BuildTime; got != st.BuildTime {
		t.Fatalf("build time = %v on a second system, want %v", got, st.BuildTime)
	}
}

func TestRetrieve(t *testing.T) {
	sys := Open(Config{})
	if err := sys.IngestFiles(flightFiles()...); err != nil {
		t.Fatal(err)
	}
	docs := sys.Retrieve("What is the status of CA981?", 3)
	if len(docs) == 0 {
		t.Fatal("no documents retrieved")
	}
}

func TestAblationConfig(t *testing.T) {
	// The w/o-MCC configuration must expose the conflicting claim as
	// unfiltered evidence.
	sys := Open(Config{DisableGraphLevel: true, DisableNodeLevel: true})
	if err := sys.IngestFiles(flightFiles()...); err != nil {
		t.Fatal(err)
	}
	ans := sys.Ask("What is the status of CA981?")
	leak := false
	for _, ev := range ans.Trusted {
		if ev.Source == "forum-user" {
			leak = true
		}
	}
	if !leak {
		t.Fatal("ablated system must pass the conflicting claim through")
	}
}

func TestMultiHopPublicAPI(t *testing.T) {
	sys := Open(Config{})
	err := sys.IngestFiles(
		File{Domain: "wiki", Source: "wiki", Name: "d1", Format: "text",
			Content: []byte("The director of The Velvet Labyrinth is Rosa Petrov.")},
		File{Domain: "wiki", Source: "wiki", Name: "d2", Format: "text",
			Content: []byte("The birthplace of Rosa Petrov is Madrid.")},
	)
	if err != nil {
		t.Fatal(err)
	}
	ans := sys.Ask("What is the birthplace of the director of The Velvet Labyrinth?")
	if !ans.Found || len(ans.Values) == 0 || !strings.EqualFold(ans.Values[0], "madrid") {
		t.Fatalf("multi-hop = %+v", ans)
	}
	if ans.Intent != "multi_hop" {
		t.Fatalf("intent = %q", ans.Intent)
	}
}
