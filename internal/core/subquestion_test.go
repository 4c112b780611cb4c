package core

import (
	"strings"
	"testing"
)

// TestSubQuestionAllocCeiling holds subQuestion to the text of the
// strings.ReplaceAll form it replaced and to one allocation, the result: it
// reads 1 (x86-64, Go 1.24). The form before it cached each relation's
// prefix in a map behind a lock every query shared and still built the
// string once per call.
func TestSubQuestionAllocCeiling(t *testing.T) {
	for _, rel := range []string{"", "status", "delay_reason", "status_state_code", "_lead", "trail_", "a__b"} {
		want := "What is the " + strings.ReplaceAll(rel, "_", " ") + " of " + "CA981" + "?"
		if got := subQuestion(rel, "CA981"); got != want {
			t.Fatalf("subQuestion(%q) = %q, want %q", rel, got, want)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	if got := testing.AllocsPerRun(100, func() { subQuestion("delay_reason", "Flight CA981") }); got > 1 {
		t.Fatalf("%.0f allocs per sub-question, ceiling 1", got)
	}
}
