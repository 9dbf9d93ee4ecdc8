package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ddr/internal/datatype"
)

// The pack/unpack engine: every staging copy of an exchange is expressed
// as an exchJob, batched per phase, and executed by a per-descriptor
// worker pool. Jobs address disjoint byte regions — packs read immutable
// owned buffers into distinct wire buffers, unpacks scatter distinct wire
// buffers into disjoint need regions (DDR's exclusive-ownership
// precondition) — so a batch executes correctly at any parallelism.

// exchJob is one pack or unpack between a local array and a wire buffer.
type exchJob struct {
	t      datatype.Type
	local  []byte
	wire   []byte
	unpack bool
	peer   int // trace label only
}

// do executes the copy, recording the per-peer span and latency when
// observation is attached. Trace recorders and histograms are
// goroutine-safe, so do may run on a pool worker.
func (j *exchJob) do(o *exchObs) {
	if !o.on() {
		if j.unpack {
			j.t.Unpack(j.wire, j.local)
		} else {
			j.t.Pack(j.local, j.wire)
		}
		return
	}
	start := time.Now()
	if j.unpack {
		j.t.Unpack(j.wire, j.local)
	} else {
		j.t.Pack(j.local, j.wire)
	}
	now := time.Now()
	if o.rec != nil {
		name := fmt.Sprintf("pack->%d", j.peer)
		if j.unpack {
			name = fmt.Sprintf("unpack<-%d", j.peer)
		}
		o.rec.AddSpan(o.rank, name, start, now, int64(len(j.wire)))
	}
	if j.unpack {
		o.unpackLat.Observe(now.Sub(start).Seconds())
	} else {
		o.packLat.Observe(now.Sub(start).Seconds())
	}
}

// engine batches jobs for one exchange phase and runs them across the
// descriptor's worker pool. The job slice is reused across calls, so the
// steady state adds nothing to the garbage collector.
type engine struct {
	par  int // worker count; <= 0 means GOMAXPROCS
	jobs []exchJob
}

func (e *engine) reset() { e.jobs = e.jobs[:0] }

func (e *engine) add(j exchJob) { e.jobs = append(e.jobs, j) }

// run executes the batched jobs and resets the batch. Workers claim jobs
// from a shared atomic cursor so imbalanced region sizes still spread
// across the pool; a single worker (or single job) runs inline on the
// calling goroutine with no synchronization.
func (e *engine) run(o *exchObs) {
	e.runJobs(o, e.jobs)
	e.reset()
}

// runJobs executes an externally owned job batch on the same worker
// pool, leaving the engine's own batch untouched. Pipelined exchanges
// keep per-round job lists alive across several loop iterations (round
// r's unpack batch outlives round r+1's pack batch), so they cannot
// share the engine's single reusable slice.
func (e *engine) runJobs(o *exchObs, jobs []exchJob) {
	n := len(jobs)
	if n == 0 {
		return
	}
	par := e.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par == 1 {
		for i := range jobs {
			jobs[i].do(o)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				jobs[i].do(o)
			}
		}()
	}
	wg.Wait()
}

// parallelism resolves the configured worker count, defaulting to
// GOMAXPROCS.
func (x *interp) parallelism() int {
	if x.eng.par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return x.eng.par
}

// directUnpack copies an already-contiguous payload straight into the
// destination span, bypassing the scatter loop, while still reporting the
// copy as an unpack (it is one — just a fast one).
func directUnpack(o *exchObs, dst, src []byte, peer int) {
	if !o.on() {
		copy(dst, src)
		return
	}
	start := time.Now()
	copy(dst, src)
	now := time.Now()
	if o.rec != nil {
		o.rec.AddSpan(o.rank, fmt.Sprintf("unpack<-%d", peer), start, now, int64(len(src)))
	}
	o.unpackLat.Observe(now.Sub(start).Seconds())
}
