package ring

import (
	"runtime"
	"sync"

	"alchemist/internal/tokens"
)

// Limb/block scheduler: the shared parallel execution plane of the ring
// layer. RNS limbs are mutually independent (the axis Alchemist's hardware
// exploits with one lane per limb), and the basis conversions tile
// independently over coefficient blocks; the scheduler fans either unit out
// across a pool of resident goroutines.
//
// Design rules, in priority order:
//
//  1. Determinism. Work is split by STATIC partition: a kernel over `tasks`
//     units runs as `parts` contiguous ranges with boundaries
//     partBounds(tasks, parts, w) that depend only on the configured worker
//     count, the task count and GOMAXPROCS — never on thread timing or on
//     how many helper tokens happened to be granted. Each task unit performs
//     arithmetic that is independent of every other unit (limbs touch
//     disjoint channel slices, conversion tiles touch disjoint coefficient
//     ranges), so outputs are byte-identical to the serial loop at every
//     worker count; the partition only decides who computes what.
//
//  2. Zero steady-state allocation. Jobs are op-coded structs recycled
//     through a free list — no closures on the hot paths, because a closure
//     handed to another goroutine escapes and allocates. The serial guard
//     (parts <= 1) comes before any job is touched, so single-threaded rings
//     (the library default, and the paper's CPU baseline) run the exact
//     PR 9 code path.
//
//  3. Bounded concurrency. Helpers are paid for with process-wide compute
//     tokens (internal/tokens), the same pool the evaluation engine draws
//     from, so engine-level job parallelism and ring-level limb parallelism
//     compose additively instead of multiplying goroutines. A job granted
//     zero tokens degrades to the caller running every partition itself —
//     same bytes, no waiting.
//
// Workers are resident: spawned on first demand, parked on a condition
// variable between jobs, torn down by Close. The submitting goroutine always
// participates (it claims partitions like any worker), so a job can never
// stall behind helpers that were granted but are busy elsewhere.

// Scheduler op codes, one per parallel kernel family.
const (
	opNTT = iota
	opINTT
	opAdd
	opSub
	opNeg
	opMul
	opMulShoup
	opMulAdd
	opMulScalar
	opAutoNTT
	opModDown
	opRescale
	opConvert
	opConvertBoth
	opKSAcc
)

// minElemParN gates limb-parallel dispatch of the elementwise kernels: below
// this degree one limb is a few hundred nanoseconds of work and the submit/
// barrier handshake costs more than it hides. A compile-time constant so the
// dispatch decision stays deterministic.
const minElemParN = 1 << 12

// schedJob is one parallel kernel invocation. The operand fields form a
// superset across op codes; runPart reads only the ones its op filled.
// Bookkeeping fields (nextPart, helpersNow, outstanding) are guarded by the
// pool mutex; operands are immutable for the job's lifetime.
type schedJob struct {
	op int
	r  *Ring

	// Operands, by op family.
	ext        *Extender       // opModDown, opRescale
	bc         *BasisConverter // opConvert
	dc         *DualConverter  // opConvertBoth
	a, b, out  *Poly           // poly operands (a=src, b=second src / conv)
	c          *Poly           // opMulShoup: the Shoup constants of b
	in, o1, o2 [][]uint64      // conversion channel slices (src, dstQ, dstP)
	srcLevel   int             // conversion source level
	nDst, nQ   int             // conversion target-channel counts
	level      int             // opRescale: the level being dropped
	last       []uint64        // opRescale: the dropped residue channel
	scalar     uint64          // opMulScalar
	pi         []int32         // opAutoNTT, opKSAcc: Galois permutation
	dp, kb, ka []*Poly         // opKSAcc: digits and key halves

	// Partition bookkeeping.
	tasks       int // independent units (limbs or conversion tiles)
	parts       int // static partition count (includes the caller)
	hcap        int // max concurrent helpers = granted tokens
	nextPart    int // next unclaimed partition index
	helpersNow  int // helpers currently inside runPart
	outstanding int // claimed but unfinished partitions
}

// clear drops every operand reference so a recycled job cannot pin polys or
// key material across calls.
func (j *schedJob) clear() {
	j.r, j.ext, j.bc, j.dc = nil, nil, nil, nil
	j.a, j.b, j.c, j.out = nil, nil, nil, nil
	j.in, j.o1, j.o2, j.pi, j.last = nil, nil, nil, nil, nil
	j.dp, j.kb, j.ka = nil, nil, nil
}

// partBounds returns the half-open task range [lo, hi) of partition w: the
// usual balanced split with every boundary a pure function of (tasks, parts).
func partBounds(tasks, parts, w int) (lo, hi int) {
	return w * tasks / parts, (w + 1) * tasks / parts
}

// parWidth returns the static partition count for a kernel with the given
// number of independent task units: the configured worker count clamped to
// the task count and to GOMAXPROCS (more runnable goroutines than Ps only
// adds scheduling overhead). 1 means run the serial path.
func (r *Ring) parWidth(tasks int) int {
	w := r.Workers()
	if w <= 1 {
		return 1
	}
	if w > tasks {
		w = tasks
	}
	if maxp := runtime.GOMAXPROCS(0); w > maxp {
		w = maxp
	}
	return w
}

// runPart executes partition w of the job: the op's serial loop restricted
// to [lo, hi). The partition index doubles as the scratch-arena shard hint,
// so concurrent partitions draw scratch from distinct BufPool shards.
func (j *schedJob) runPart(w int) {
	lo, hi := partBounds(j.tasks, j.parts, w)
	switch j.op {
	case opNTT:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].NTTLazy(j.a.Coeffs[i])
		}
	case opINTT:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].INTTLazy(j.a.Coeffs[i])
		}
	case opAdd:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].Add(j.a.Coeffs[i], j.b.Coeffs[i], j.out.Coeffs[i])
		}
	case opSub:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].Sub(j.a.Coeffs[i], j.b.Coeffs[i], j.out.Coeffs[i])
		}
	case opNeg:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].Neg(j.a.Coeffs[i], j.out.Coeffs[i])
		}
	case opMul:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].MulCoeffs(j.a.Coeffs[i], j.b.Coeffs[i], j.out.Coeffs[i])
		}
	case opMulShoup:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].MulCoeffsShoup(j.a.Coeffs[i], j.b.Coeffs[i], j.c.Coeffs[i], j.out.Coeffs[i])
		}
	case opMulAdd:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].MulCoeffsAndAdd(j.a.Coeffs[i], j.b.Coeffs[i], j.out.Coeffs[i])
		}
	case opMulScalar:
		for i := lo; i < hi; i++ {
			j.r.SubRings[i].MulScalar(j.a.Coeffs[i], j.scalar, j.out.Coeffs[i])
		}
	case opAutoNTT:
		n := j.r.N
		for i := lo; i < hi; i++ {
			src, dst := j.a.Coeffs[i][:n:n], j.out.Coeffs[i][:n:n]
			if useNTTKern && n&3 == 0 {
				gatherIdxVec(dst, src, j.pi)
				continue
			}
			for k := range dst {
				dst[k] = src[j.pi[k]]
			}
		}
	case opModDown:
		for i := lo; i < hi; i++ {
			j.ext.modDownChannel(i, j.a, j.b, j.out)
		}
	case opRescale:
		for i := lo; i < hi; i++ {
			j.ext.rescaleChannel(j.level, i, j.a, j.last, j.out)
		}
	case opConvert:
		j.bc.convertLazyRange(j.srcLevel, j.in, j.o1, j.nDst, lo, hi, w)
	case opConvertBoth:
		j.dc.convertBothRange(j.srcLevel, j.in, j.o1, j.o2, j.nQ, lo, hi, w)
	case opKSAcc:
		j.r.ksAccLimbs(lo, hi, w, j.dp, j.kb, j.ka, j.pi, j.a, j.out)
	}
}

// workerPool is the resident goroutine pool attached to a Ring. The zero
// value is ready after init() (called lazily under the mutex).
type workerPool struct {
	mu      sync.Mutex
	cond    *sync.Cond // workers park here waiting for claimable partitions
	done    *sync.Cond // callers wait here for job completion / teardown
	inited  bool
	jobs    []*schedJob // jobs with unclaimed partitions, oldest first
	free    []*schedJob // recycled job records
	spawned int         // resident worker goroutines
	closing bool        // Close in progress: workers drain and exit
}

func (p *workerPool) init() {
	if !p.inited {
		p.cond = sync.NewCond(&p.mu)
		p.done = sync.NewCond(&p.mu)
		p.inited = true
	}
}

// getJob returns a recycled (or fresh) job record with operands cleared.
func (r *Ring) getJob() *schedJob {
	p := &r.pool
	p.mu.Lock()
	var j *schedJob
	if n := len(p.free); n > 0 {
		j = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		j = new(schedJob)
	}
	p.mu.Unlock()
	j.r = r
	return j
}

// runParallel executes the filled job across `parts` static partitions and
// blocks until all of them have finished. The caller claims partitions like
// any worker; helper concurrency is capped by the token grant, and a grant
// of zero degrades to the caller running every partition inline (identical
// bytes — the partition boundaries do not move).
func (r *Ring) runParallel(j *schedJob, parts int) {
	j.parts = parts
	j.nextPart, j.helpersNow, j.outstanding = 0, 0, 0
	granted := tokens.Acquire(parts - 1)
	j.hcap = granted
	p := &r.pool
	if granted == 0 {
		// No helper budget: run every partition inline without touching the
		// queue (the job was never visible to workers).
		for w := 0; w < parts; w++ {
			j.runPart(w)
		}
		p.mu.Lock()
		j.clear()
		p.free = append(p.free, j)
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	p.init()
	p.jobs = append(p.jobs, j)
	// Top up resident workers to the largest grant seen; Close may have torn
	// them down. Parked workers are cheap and the count is bounded by the
	// token budget, itself defaulting to GOMAXPROCS.
	for p.spawned < granted && !p.closing {
		p.spawned++
		go p.worker()
	}
	p.cond.Broadcast()
	// The caller claims partitions alongside the helpers. Like the worker
	// loop it must detach the job the moment the last partition is claimed —
	// before releasing the lock — so no worker finds a drained job in the
	// list and claims a partition past the end.
	for j.nextPart < j.parts {
		w := j.nextPart
		j.nextPart++
		j.outstanding++
		if j.nextPart >= j.parts {
			p.detach(j)
		}
		p.mu.Unlock()
		j.runPart(w)
		p.mu.Lock()
		j.outstanding--
	}
	p.detach(j)
	for j.outstanding > 0 {
		p.done.Wait()
	}
	// No list entry and no in-flight claims: j is unreachable by workers.
	j.clear()
	p.free = append(p.free, j)
	p.mu.Unlock()
	tokens.Release(granted)
}

// claimable returns the oldest job with an unclaimed partition and spare
// helper capacity (callers hold mu).
func (p *workerPool) claimable() *schedJob {
	for _, j := range p.jobs {
		if j.nextPart < j.parts && j.helpersNow < j.hcap {
			return j
		}
	}
	return nil
}

// detach removes j from the active list (idempotent; callers hold mu).
func (p *workerPool) detach(j *schedJob) {
	for k, a := range p.jobs {
		if a == j {
			copy(p.jobs[k:], p.jobs[k+1:])
			p.jobs[len(p.jobs)-1] = nil
			p.jobs = p.jobs[:len(p.jobs)-1]
			return
		}
	}
}

// worker is the resident goroutine body: claim a partition from the oldest
// job with helper headroom, run it, repeat; park when idle, exit on Close.
func (p *workerPool) worker() {
	p.mu.Lock()
	for {
		j := p.claimable()
		for j == nil && !p.closing {
			p.cond.Wait()
			j = p.claimable()
		}
		if j == nil {
			break // closing, and nothing left to drain
		}
		w := j.nextPart
		j.nextPart++
		j.outstanding++
		j.helpersNow++
		if j.nextPart >= j.parts {
			p.detach(j)
		}
		p.mu.Unlock()
		j.runPart(w)
		p.mu.Lock()
		j.outstanding--
		j.helpersNow--
		if j.outstanding == 0 && j.nextPart >= j.parts {
			p.done.Broadcast()
		}
	}
	p.spawned--
	p.done.Broadcast()
	p.mu.Unlock()
}
