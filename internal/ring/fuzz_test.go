package ring

import (
	"testing"

	"alchemist/internal/modmath"
)

// FuzzPolyUnmarshal checks the wire-format parser never panics or
// over-allocates on adversarial input.
func FuzzPolyUnmarshal(f *testing.F) {
	r, err := NewRing(16, []uint64{12289})
	if err != nil {
		f.Fatal(err)
	}
	p := randPoly(r, 0, 1)
	blob, _ := p.MarshalBinary()
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 16, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Poly
		if err := q.UnmarshalBinary(data); err == nil {
			// A successful parse must round-trip to identical bytes.
			out, err := q.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal failed after successful parse: %v", err)
			}
			if len(out) != len(data) {
				t.Fatalf("asymmetric round trip: %d vs %d bytes", len(out), len(data))
			}
		}
	})
}

// FuzzBorrowReleaseSequence drives the poly arena with an arbitrary
// byte-program of Borrow / BorrowZero / Release operations and cross-checks
// the invariants the static arena-lifetime rule assumes to hold at runtime:
// a borrowed poly has exactly the shape its level promises, no two live
// polys share backing memory, BorrowZero really clears, live contents
// survive unrelated arena traffic, and a released poly comes back from the
// pool unmarked. Runs under SetPoolDebug so recycled buffers arrive poisoned
// rather than coincidentally holding a stale sentinel.
func FuzzBorrowReleaseSequence(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{0, 0, 0, 2, 2, 2})
	f.Add([]byte{4, 9, 2, 13, 0, 2, 2, 1, 3})
	f.Fuzz(func(t *testing.T, program []byte) {
		SetPoolDebug(true)
		defer SetPoolDebug(false)
		const n = 16
		primes, err := modmath.GenerateNTTPrimes(30, uint64(2*n), 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRing(n, primes)
		if err != nil {
			t.Fatal(err)
		}
		type held struct {
			p   *Poly
			tag uint64
		}
		var live []held
		nextTag := uint64(1)

		check := func() {
			rows := map[*uint64]int{}
			for i, h := range live {
				if got := h.p.Level() + 1; got != len(h.p.Coeffs) || len(h.p.Coeffs) == 0 {
					t.Fatalf("live poly %d has inconsistent level", i)
				}
				for c := range h.p.Coeffs {
					row := h.p.Coeffs[c]
					if len(row) != n {
						t.Fatalf("live poly %d channel %d has degree %d, want %d", i, c, len(row), n)
					}
					if prev, dup := rows[&row[0]]; dup {
						t.Fatalf("live polys %d and %d alias the same channel buffer", prev, i)
					}
					rows[&row[0]] = i
				}
				if h.p.Coeffs[0][0] != h.tag {
					t.Fatalf("live poly %d lost its sentinel: got %#x want %#x (clobbered by arena traffic)",
						i, h.p.Coeffs[0][0], h.tag)
				}
				if h.p.released {
					t.Fatalf("live poly %d is marked released", i)
				}
			}
		}

		for _, b := range program {
			op := int(b) % 4
			arg := int(b) / 4
			// Releasing is twice as likely as either borrow flavor so random
			// programs exercise recycling, not just arena growth.
			switch {
			case op == 0 && len(live) < 64:
				p := r.Borrow(arg % len(r.SubRings))
				p.Coeffs[0][0] = nextTag
				live = append(live, held{p, nextTag})
				nextTag++
			case op == 1 && len(live) < 64:
				p := r.BorrowZero(arg % len(r.SubRings))
				for c := range p.Coeffs {
					for j, v := range p.Coeffs[c] {
						if v != 0 {
							t.Fatalf("BorrowZero channel %d word %d = %#x", c, j, v)
						}
					}
				}
				p.Coeffs[0][0] = nextTag
				live = append(live, held{p, nextTag})
				nextTag++
			default:
				if len(live) == 0 {
					continue
				}
				i := arg % len(live)
				r.Release(live[i].p)
				live = append(live[:i], live[i+1:]...)
			}
			check()
		}
		for _, h := range live {
			r.Release(h.p)
		}
	})
}

// FuzzReduceOnce pins the lazy-domain normalization against the
// MulModShoupLazy output contract: for any x in the [0, 4q) accumulator
// range, one conditional subtraction of 2q followed by one of q lands
// exactly on x mod q. condSub and condSubMask (the two branch-free
// single-subtraction forms the kernels choose between) must agree with each
// other and, on the [0, 2q) subrange, with reduceOnce.
func FuzzReduceOnce(f *testing.F) {
	f.Add(uint64(0), uint64(12289))
	f.Add(^uint64(0), (uint64(1)<<62)-60)
	f.Add(uint64(4)*12289-1, uint64(12289))
	f.Add(uint64(2)*12289, uint64(12289))
	// Maximum-headroom corners: x at the very top of the 4q domain with q at
	// the top of the 2^62 Barrett bound (4q-1 here is within 4 of 2^64, so an
	// off-by-one in either subtraction wraps the word), and the exact 2q / 4q-1
	// boundaries at a near-2^61 Mersenne modulus.
	f.Add(uint64(4)*((uint64(1)<<62)-60)-1, (uint64(1)<<62)-60)
	f.Add(uint64(2)*((uint64(1)<<62)-60), (uint64(1)<<62)-60)
	f.Add(uint64(4)*2305843009213693951-1, uint64(2305843009213693951))
	f.Add(uint64(2)*2305843009213693951-1, uint64(2305843009213693951))
	f.Fuzz(func(t *testing.T, xSeed, qSeed uint64) {
		q := qSeed%((1<<62)-3) + 3
		x := xSeed % (4 * q)
		if got := reduceOnce(x, 2*q, q); got != x%q {
			t.Fatalf("reduceOnce(%d, 2q, %d) = %d want %d", x, q, got, x%q)
		}
		y := x % (2 * q) // condSub's domain is one subtraction wide
		if a, b := condSub(y, q), condSubMask(y, q); a != b || a != y%q {
			t.Fatalf("condSub(%d, %d) = %d, condSubMask = %d, want %d", y, q, a, b, y%q)
		}
		if got := reduceOnce(y, 2*q, q); got != y%q {
			t.Fatalf("reduceOnce(%d, 2q, %d) = %d want %d on [0,2q)", y, q, got, y%q)
		}
		// End-to-end lazy pipeline over the whole butterfly domain: a lazy
		// Shoup product of the raw [0,4q) value followed by one conditional
		// subtraction must land on the eager result — exactly the composition
		// the interval rule certifies in NTTLazy's final stage.
		w := xSeed % q
		r := modmath.MulModShoupLazy(x, w, modmath.ShoupPrecomp(w, q), q)
		if got, want := condSub(r, q), modmath.MulMod(x%q, w, q); got != want {
			t.Fatalf("condSub(MulModShoupLazy(%d,%d)) mod %d = %d want %d", x, w, q, got, want)
		}
	})
}

// FuzzNTTLazyCrossCheck cross-checks the vectorized lazy transforms against
// independent references: the natural-order 4-step NTT (eager arithmetic
// end to end, itself validated against the direct DFT), the scalar lazy
// reference path the asm kernels are pinned to, an INTT round trip, and —
// through the transforms — the O(N²) schoolbook negacyclic product. Moduli
// sweep the interesting widths: 30-bit (small), 49/50-bit (both sides of
// the IFMA tier's q < 2^50 gate) and 61-bit (maximum lazy headroom, where
// 4q−1 sits within a handful of ulps of the word and any off-by-one in the
// butterfly ladder wraps). The zero seed drives every coefficient to q−1,
// the input that pushes intermediate butterfly values to the top of the
// [0,4q) domain.
func FuzzNTTLazyCrossCheck(f *testing.F) {
	f.Add(uint64(0), uint8(2), uint8(3)) // all-(q−1) input, 61-bit headroom ceiling
	f.Add(uint64(0), uint8(1), uint8(1)) // all-(q−1) at the IFMA boundary
	f.Add(uint64(1), uint8(3), uint8(2)) // random, 50-bit (IFMA falls back to AVX2)
	f.Add(uint64(42), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nSel, bitsSel uint8) {
		ns := [...]int{16, 64, 256, 1024}
		n := ns[int(nSel)%len(ns)]
		widths := [...]uint64{30, 49, 50, 61}
		qBits := widths[int(bitsSel)%len(widths)]
		primes, err := modmath.GenerateNTTPrimes(qBits, uint64(2*n), 1)
		if err != nil {
			t.Skip("no prime at this width/degree")
		}
		s, err := NewSubRing(n, primes[0])
		if err != nil {
			t.Fatal(err)
		}
		q := s.Q
		x := seed
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		a := make([]uint64, n)
		for i := range a {
			if seed == 0 {
				a[i] = q - 1
			} else {
				a[i] = next() % q
			}
		}

		// Vectorized forward transform vs the natural-order 4-step DFT,
		// equal up to the bit-reversal permutation.
		lazy := append([]uint64(nil), a...)
		s.NTTLazy(lazy)
		logN := log2(n)
		natural, err := s.FourStepNTT(a, 1<<(logN/2))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got := lazy[int(bitrev(uint32(i), logN))]; got != natural[i] {
				t.Fatalf("n=%d q=%d(%d bits): NTTLazy[brv(%d)] = %d, four-step = %d",
					n, q, qBits, i, got, natural[i])
			}
		}
		// Bit-identity with the scalar lazy reference, both directions.
		sc := append([]uint64(nil), a...)
		s.nttLazyScalar(sc)
		for i := range sc {
			if sc[i] != lazy[i] {
				t.Fatalf("n=%d q=%d: vector NTTLazy differs from scalar at %d: %d vs %d",
					n, q, i, lazy[i], sc[i])
			}
		}
		s.INTTLazy(lazy)
		s.inttLazyScalar(sc)
		for i := range a {
			if lazy[i] != a[i] {
				t.Fatalf("n=%d q=%d: INTTLazy round trip differs at %d", n, q, i)
			}
			if sc[i] != a[i] {
				t.Fatalf("n=%d q=%d: scalar INTT round trip differs at %d", n, q, i)
			}
		}

		// End-to-end negacyclic product through the vector transforms against
		// the O(N²) schoolbook reference (small degrees only).
		if n <= 256 {
			b := make([]uint64, n)
			for i := range b {
				if seed == 0 {
					b[i] = q - 1
				} else {
					b[i] = next() % q
				}
			}
			want := make([]uint64, n)
			s.NegacyclicConvolve(a, b, want)
			pa := append([]uint64(nil), a...)
			pb := append([]uint64(nil), b...)
			s.NTTLazy(pa)
			s.NTTLazy(pb)
			for i := range pa {
				pa[i] = modmath.MulMod(pa[i], pb[i], q)
			}
			s.INTTLazy(pa)
			for i := range pa {
				if pa[i] != want[i] {
					t.Fatalf("n=%d q=%d: NTT-domain product differs from O(N²) reference at %d: %d vs %d",
						n, q, i, pa[i], want[i])
				}
			}
		}

		// Raw kernel domain: the standalone stage kernels accept the full
		// [0,4q) lazy range, so drive them there directly — the zero seed
		// pins every lane to the 4q−1 corner.
		if useNTTKern {
			const kn = 64
			h := kn / 2
			fourQ := 4 * q
			x0, x1 := make([]uint64, h), make([]uint64, h)
			for i := 0; i < h; i++ {
				if seed == 0 {
					x0[i], x1[i] = fourQ-1, fourQ-1
				} else {
					x0[i], x1[i] = next()%fourQ, next()%fourQ
				}
			}
			w := next() % q
			m0, m1 := append([]uint64(nil), x0...), append([]uint64(nil), x1...)
			v0, v1 := append([]uint64(nil), x0...), append([]uint64(nil), x1...)
			modelNTTSingle(m0, m1, w, modmath.ShoupPrecomp(w, q), q, mulLazy64Model)
			nttSingleVec(v0, v1, w, modmath.ShoupPrecomp(w, q), q)
			for i := 0; i < h; i++ {
				if v0[i] != m0[i] || v1[i] != m1[i] {
					t.Fatalf("q=%d: nttSingleVec differs from scalar model at %d on [0,4q) input", q, i)
				}
			}
			if useNTTKernIFMA && q < 1<<50 {
				w52 := shoup52(w, q)
				m0, m1 = append([]uint64(nil), x0...), append([]uint64(nil), x1...)
				v0, v1 = append([]uint64(nil), x0...), append([]uint64(nil), x1...)
				modelNTTSingle(m0, m1, w, w52, q, mulLazy52Model)
				nttSingleVec52(v0, v1, w, w52, q)
				for i := 0; i < h; i++ {
					if v0[i] != m0[i] || v1[i] != m1[i] {
						t.Fatalf("q=%d: nttSingleVec52 differs from the madd model at %d on [0,4q) input", q, i)
					}
				}
			}
		}
	})
}
