package tokens

import (
	"sync"
	"sync/atomic"
	"testing"
)

// withBudget sets the token budget for the duration of a test, restoring the
// previous one on cleanup. Each test releases every token it acquires, so the
// restored pool is whole again.
func withBudget(tb testing.TB, n int) {
	tb.Helper()
	old := Budget()
	SetBudget(n)
	tb.Cleanup(func() { SetBudget(old) })
}

func TestAcquireGrantsAtMostFreeBudget(t *testing.T) {
	withBudget(t, 4)
	if g := Acquire(3); g != 3 {
		t.Fatalf("Acquire(3) on 4 free = %d, want 3", g)
	}
	if n := InUse(); n != 3 {
		t.Fatalf("InUse = %d after granting 3, want 3", n)
	}
	if g := Acquire(5); g != 1 {
		t.Fatalf("Acquire(5) on 1 free = %d, want 1", g)
	}
	if g := Acquire(1); g != 0 {
		t.Fatalf("Acquire(1) on an empty pool = %d, want 0", g)
	}
	Release(3)
	if n := InUse(); n != 1 {
		t.Fatalf("InUse = %d after releasing 3 of 4, want 1", n)
	}
	if g := Acquire(10); g != 3 {
		t.Fatalf("Acquire(10) on 3 free = %d, want 3", g)
	}
	Release(4)
	if n := InUse(); n != 0 {
		t.Fatalf("InUse = %d after releasing everything, want 0", n)
	}
}

// TestZeroBudget covers the degenerate requests and budgets: a request for
// nothing grants nothing, releasing nothing is a no-op, and a budget below
// one clamps to one token.
func TestZeroBudget(t *testing.T) {
	withBudget(t, 2)
	for _, max := range []int{0, -1} {
		if g := Acquire(max); g != 0 {
			t.Fatalf("Acquire(%d) = %d, want 0", max, g)
		}
	}
	Release(0)
	Release(-3)
	if n := InUse(); n != 0 {
		t.Fatalf("InUse = %d after empty releases, want 0", n)
	}
	for _, n := range []int{0, -5} {
		SetBudget(n)
		if b := Budget(); b != 1 {
			t.Fatalf("SetBudget(%d): Budget = %d, want the clamp 1", n, b)
		}
	}
	if g := Acquire(3); g != 1 {
		t.Fatalf("Acquire(3) on the clamped budget = %d, want 1", g)
	}
	Release(1)
}

// TestSetBudgetShrinkWhileHeld shrinks the budget below the claimed count:
// the claims stay counted, nothing new is granted until they come back, and
// the pool then holds exactly the new budget.
func TestSetBudgetShrinkWhileHeld(t *testing.T) {
	withBudget(t, 4)
	if g := Acquire(4); g != 4 {
		t.Fatalf("Acquire(4) = %d, want 4", g)
	}
	SetBudget(2)
	if b, n := Budget(), InUse(); b != 2 || n != 4 {
		t.Fatalf("after shrinking: Budget %d InUse %d, want 2 and 4", b, n)
	}
	Release(2)
	if g := Acquire(1); g != 0 {
		t.Fatalf("Acquire with 2 of 2 still held = %d, want 0", g)
	}
	Release(2)
	if n := InUse(); n != 0 {
		t.Fatalf("InUse = %d after releasing every claim, want 0", n)
	}
	if g := Acquire(5); g != 2 {
		t.Fatalf("Acquire(5) on the shrunk pool = %d, want 2", g)
	}
	Release(2)
}

// TestConcurrentAcquireRelease runs a few goroutines that acquire and release
// against one small budget (meant for -race): the tokens held at once never
// exceed the budget, and every token comes back.
func TestConcurrentAcquireRelease(t *testing.T) {
	const budget, workers, rounds = 3, 4, 500
	withBudget(t, budget)
	var held atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g := Acquire(2)
				if g < 0 || g > 2 {
					t.Errorf("Acquire(2) = %d", g)
					return
				}
				if h := held.Add(int64(g)); h > budget {
					t.Errorf("%d tokens held at once, budget %d", h, budget)
				}
				held.Add(-int64(g))
				Release(g)
			}
		}()
	}
	wg.Wait()
	if n := InUse(); n != 0 {
		t.Fatalf("InUse = %d after all workers released, want 0", n)
	}
	if g := Acquire(budget); g != budget {
		t.Fatalf("Acquire(%d) after the run = %d, want the whole budget", budget, g)
	}
	Release(budget)
}
