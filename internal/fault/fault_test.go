package fault

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"
)

// Armed lists the armed point names, sorted.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(table))
	for p := range table {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func TestInjectUnarmedIsNoop(t *testing.T) {
	t.Cleanup(Reset)
	if err := Inject(context.Background(), PointLLMGenerate); err != nil {
		t.Fatalf("unarmed Inject = %v, want nil", err)
	}
}

func TestInjectError(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Fault{Kind: KindError})
	if err := Inject(context.Background(), "p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Inject = %v, want ErrInjected", err)
	}
	custom := errors.New("boom")
	Enable("p", Fault{Kind: KindError, Err: custom})
	if err := Inject(context.Background(), "p"); !errors.Is(err, custom) {
		t.Fatalf("Inject = %v, want custom error", err)
	}
	// Other points stay unarmed.
	if err := Inject(context.Background(), "q"); err != nil {
		t.Fatalf("Inject(other) = %v, want nil", err)
	}
}

func TestInjectMaxHits(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Fault{Kind: KindError, MaxHits: 2})
	for i := 0; i < 2; i++ {
		if err := Inject(context.Background(), "p"); err == nil {
			t.Fatalf("hit %d: want error", i)
		}
	}
	if err := Inject(context.Background(), "p"); err != nil {
		t.Fatalf("after budget spent: Inject = %v, want nil", err)
	}
	if got := Hits("p"); got != 2 {
		t.Fatalf("Hits = %d, want 2", got)
	}
}

func TestInjectLatencyHonorsContext(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Fault{Kind: KindLatency, Latency: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	start := time.Now()
	err := Inject(ctx, "p")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Inject = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("latency fault ignored cancel, took %v", d)
	}
}

func TestHangReleasedByCancelAndDisable(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Fault{Kind: KindHang})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 2)
	go func() { done <- Inject(ctx, "p") }()
	go func() { done <- Inject(context.Background(), "p") }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled hang = %v, want context.Canceled", err)
	}
	Disable("p")
	if err := <-done; err != nil {
		t.Fatalf("released hang = %v, want nil", err)
	}
}

func TestInjectPanics(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Fault{Kind: KindPanic})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	_ = Inject(context.Background(), "p")
}

func TestArmedList(t *testing.T) {
	t.Cleanup(Reset)
	Enable("b", Fault{Kind: KindError})
	Enable("a", Fault{Kind: KindError})
	got := Armed()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Armed = %v, want [a b]", got)
	}
	Reset()
	if len(Armed()) != 0 {
		t.Fatal("Reset left faults armed")
	}
}
