package fault

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

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

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	b := NewBreaker("test", 3, time.Second, now)

	boom := errors.New("boom")
	fail := func() error { return boom }
	ok := func() error { return nil }

	for i := 0; i < 3; i++ {
		if err := b.Do(fail); !errors.Is(err, boom) {
			t.Fatalf("call %d = %v, want boom", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := b.Do(ok); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker = %v, want ErrOpen", err)
	}

	// Cooldown elapses; a failing probe re-opens.
	clock = clock.Add(time.Second)
	if err := b.Do(fail); !errors.Is(err, boom) {
		t.Fatalf("probe = %v, want boom (probe admitted)", err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}

	// Another cooldown; a succeeding probe closes it again.
	clock = clock.Add(time.Second)
	if err := b.Do(ok); err != nil {
		t.Fatalf("probe = %v, want nil", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", b.State())
	}

	st := b.Stats()
	if st.Trips != 2 || st.FastFails != 1 || st.Successes != 1 {
		t.Fatalf("stats = %+v, want trips=2 fastFails=1 successes=1", st)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker("test", 1, time.Second, func() time.Time { return clock })
	_ = b.Do(func() error { return errors.New("x") })
	clock = clock.Add(2 * time.Second)

	// First caller takes the probe slot and blocks; a concurrent caller must
	// fast-fail rather than stack a second probe.
	probeStarted := make(chan struct{})
	probeRelease := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = b.Do(func() error {
			close(probeStarted)
			<-probeRelease
			return nil
		})
	}()
	<-probeStarted
	if err := b.Do(func() error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("second half-open call = %v, want ErrOpen", err)
	}
	close(probeRelease)
	wg.Wait()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}
