package neutralize

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestSignalPendingConsume(t *testing.T) {
	d := NewDomain(3)
	if d.Pending(1) {
		t.Fatal("fresh domain reports a pending signal")
	}
	if !d.Signal(1) {
		t.Fatal("Signal returned false")
	}
	if !d.Pending(1) {
		t.Fatal("signal not pending after Signal")
	}
	if d.Pending(0) || d.Pending(2) {
		t.Fatal("signal leaked to another thread")
	}
	if !d.Consume(1) {
		t.Fatal("Consume returned false with a pending signal")
	}
	if d.Pending(1) {
		t.Fatal("signal still pending after Consume")
	}
	if d.Consume(1) {
		t.Fatal("Consume returned true with no pending signal")
	}
	if d.SignalsSent() != 1 {
		t.Fatalf("SignalsSent=%d want 1", d.SignalsSent())
	}
}

func TestMultipleSignalsCoalesce(t *testing.T) {
	d := NewDomain(1)
	for i := 0; i < 5; i++ {
		d.Signal(0)
	}
	if !d.Consume(0) {
		t.Fatal("Consume returned false")
	}
	if d.Pending(0) {
		t.Fatal("Consume must deliver every signal sent so far")
	}
	if d.SignalsSent() != 5 {
		t.Fatalf("SignalsSent=%d want 5", d.SignalsSent())
	}
}

func TestConcurrentSignalers(t *testing.T) {
	d := NewDomain(2)
	var wg sync.WaitGroup
	const signals = 1000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < signals; i++ {
				d.Signal(1)
			}
		}()
	}
	consumed := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for {
		if d.Consume(1) {
			consumed++
		}
		select {
		case <-done:
			if d.Consume(1) {
				consumed++
			}
			if d.Pending(1) {
				t.Error("signals still pending after final consume")
			}
			if consumed == 0 {
				t.Error("never consumed any signal")
			}
			return
		default:
		}
	}
}

func TestRecoverHelper(t *testing.T) {
	if _, ok := Recover(nil); ok {
		t.Fatal("Recover(nil) reported a neutralization")
	}
	n, ok := Recover(Neutralized{Tid: 3})
	if !ok || n.Tid != 3 {
		t.Fatalf("Recover returned %+v, %v", n, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Recover must re-panic for foreign panic values")
		}
	}()
	Recover("some other panic")
}

func TestNeutralizedError(t *testing.T) {
	err := Neutralized{Tid: 7}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestNewDomainValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewDomain(0)
}

// unprotectLog records OnNeutralized's calls to fn and RUnprotectAll in order.
type unprotectLog struct{ calls []string }

func (l *unprotectLog) RUnprotectAll() { l.calls = append(l.calls, "unprotect") }

func TestOnNeutralized(t *testing.T) {
	cases := []struct {
		name      string
		panicWith any // nil: the body returns normally
		wantCalls []string
		rePanics  bool
	}{
		{name: "normal return"},
		{name: "neutralized", panicWith: Neutralized{Tid: 4}, wantCalls: []string{"fn 4", "unprotect"}},
		{name: "foreign panic", panicWith: "boom", rePanics: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &unprotectLog{}
			var rethrown any
			func() {
				defer func() { rethrown = recover() }()
				defer OnNeutralized(log, func(n Neutralized) {
					log.calls = append(log.calls, fmt.Sprintf("fn %d", n.Tid))
				})
				if tc.panicWith != nil {
					panic(tc.panicWith)
				}
			}()
			if !slices.Equal(log.calls, tc.wantCalls) {
				t.Fatalf("calls = %q, want %q", log.calls, tc.wantCalls)
			}
			if tc.rePanics != (rethrown != nil) {
				t.Fatalf("re-panicked with %v, want re-panic %v", rethrown, tc.rePanics)
			}
			if tc.rePanics && rethrown != tc.panicWith {
				t.Fatalf("re-panicked with %v, want %v", rethrown, tc.panicWith)
			}
		})
	}
}
