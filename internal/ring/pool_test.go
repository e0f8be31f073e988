package ring

import (
	"strings"
	"testing"

	"alchemist/internal/modmath"
)

// Arena semantics tests: the pools hand back arbitrary contents by contract,
// so these pin the structural guarantees (shape, reuse, poisoning) rather
// than values.

func poolRing(t *testing.T) *Ring {
	t.Helper()
	const n = 64
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBufPoolReusesAndResizes(t *testing.T) {
	var bp BufPool
	b := bp.Get(128)
	if len(b) != 128 {
		t.Fatalf("Get(128) returned len %d", len(b))
	}
	b[0] = 42
	bp.Put(b)
	// Same-size request must reuse the buffer (single-goroutine sync.Pool
	// round trip hits the private slot deterministically).
	c := bp.Get(128)
	if &c[0] != &b[0] {
		t.Error("same-size Get after Put did not reuse the buffer")
	}
	bp.Put(c)
	// A larger request must not hand back the too-small buffer.
	d := bp.Get(256)
	if len(d) != 256 {
		t.Fatalf("Get(256) returned len %d", len(d))
	}
	if cap(d) < 256 {
		t.Fatalf("Get(256) returned cap %d", cap(d))
	}
	// Shrinking requests reslice the big buffer rather than allocating.
	bp.Put(d)
	e := bp.Get(100)
	if len(e) != 100 {
		t.Fatalf("Get(100) returned len %d", len(e))
	}
	if &e[0] != &d[0] {
		t.Error("smaller Get after Put did not reslice the pooled buffer")
	}
}

func TestBufPoolPutNilIsNoop(t *testing.T) {
	var bp BufPool
	bp.Put(nil) // must not panic or pool a nil buffer
	if b := bp.Get(8); len(b) != 8 {
		t.Fatalf("Get(8) after Put(nil) returned len %d", len(b))
	}
}

func TestBufPoolPoison(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	if !PoolDebug() {
		t.Fatal("SetPoolDebug(true) did not stick")
	}
	var bp BufPool
	b := bp.Get(16)
	for i := range b {
		b[i] = uint64(i)
	}
	bp.Put(b)
	for i, v := range b[:16] {
		if v != poolPoison {
			t.Fatalf("released buffer word %d = %#x, want poison %#x", i, v, uint64(poolPoison))
		}
	}
}

func TestBorrowReleaseShapes(t *testing.T) {
	r := poolRing(t)
	for level := 0; level <= r.MaxLevel(); level++ {
		p := r.Borrow(level)
		if p.Level() != level {
			t.Fatalf("Borrow(%d) returned level %d", level, p.Level())
		}
		for i := range p.Coeffs {
			if len(p.Coeffs[i]) != r.N {
				t.Fatalf("Borrow(%d) channel %d has degree %d", level, i, len(p.Coeffs[i]))
			}
		}
		r.Release(p)
	}
	// A released poly must come back at the same level, never another.
	a := r.Borrow(1)
	r.Release(a)
	b := r.Borrow(0)
	if b == a {
		t.Error("Borrow(0) returned a level-1 poly")
	}
	// Under -race sync.Pool drops Puts by design, so the released poly may
	// be gone; only the reuse is skipped, never the level check above.
	if raceEnabled {
		return
	}
	c := r.Borrow(1)
	if c != a {
		t.Error("Borrow(1) did not reuse the released level-1 poly")
	}
}

func TestBorrowZeroClears(t *testing.T) {
	r := poolRing(t)
	level := r.MaxLevel()
	p := r.Borrow(level)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = 7
		}
	}
	r.Release(p)
	z := r.BorrowZero(level)
	for i := range z.Coeffs {
		for j, v := range z.Coeffs[i] {
			if v != 0 {
				t.Fatalf("BorrowZero channel %d word %d = %d", i, j, v)
			}
		}
	}
	r.Release(z)
}

func TestReleaseRejectsForeignShapes(t *testing.T) {
	r := poolRing(t)
	r.Release(nil) // must not panic

	// Wrong degree: a poly from a different ring must not enter the arena.
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*128), 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewRing(128, primes)
	if err != nil {
		t.Fatal(err)
	}
	foreign := other.NewPoly(0)
	r.Release(foreign)
	got := r.Borrow(0)
	if got == foreign {
		t.Error("arena accepted a poly of foreign degree")
	}
}

func TestReleasePoisonsPoly(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	r := poolRing(t)
	p := r.Borrow(1)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = uint64(j)
		}
	}
	r.Release(p)
	for i := range p.Coeffs {
		for j, v := range p.Coeffs[i] {
			if v != poolPoison {
				t.Fatalf("released poly channel %d word %d = %#x, want poison", i, j, v)
			}
		}
	}
}

func TestDoubleReleasePanicsUnderDebug(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	r := poolRing(t)
	p := r.Borrow(1)
	r.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release of a pooled Poly did not panic under SetPoolDebug")
		}
	}()
	r.Release(p)
}

func TestDoubleReleaseReportsBorrowSite(t *testing.T) {
	// The runtime diagnostic must speak the static checker's vocabulary: the
	// panic names the Borrow call site that issued the poly, so a crash in a
	// deep kernel points straight at the obligation the arena-lifetime rule
	// tracks.
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	r := poolRing(t)
	p := r.Borrow(1) // the panic below must cite this line
	r.Release(p)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("double Release did not panic under SetPoolDebug")
		}
		msg, ok := v.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", v)
		}
		if !strings.Contains(msg, "borrowed at pool_test.go:") {
			t.Fatalf("panic %q does not cite the borrow call site", msg)
		}
	}()
	r.Release(p)
}

func TestDoubleReleaseSilentWithoutDebug(t *testing.T) {
	// Without the debug mode the arena keeps its historical tolerance (the
	// release is still wrong, but production code must not crash); the
	// released flag is cleared by the next Borrow either way.
	r := poolRing(t)
	p := r.Borrow(1)
	r.Release(p)
	r.Release(p)
	q := r.Borrow(1)
	if q.released {
		t.Fatal("Borrow returned a poly still marked released")
	}
	r.Release(q)
}

func TestCloseBeforeAnyParallelUse(t *testing.T) {
	// Close on a ring whose worker pool was never initialized (no parallel
	// transform ever ran) must be a no-op, and stay idempotent.
	r := poolRing(t)
	r.Close()
	r.Close()
	p := r.Borrow(0)
	r.Release(p)
}
