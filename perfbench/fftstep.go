package main

import (
	"fmt"
	"math/cmplx"
	"time"

	"ddr/internal/core"
	"ddr/internal/fft"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/trace"
)

// fftStep is use case C, warm: one op is one fft.Dist2D Step, a forward
// and an inverse 2D transform with a slab→pencil transpose each way. The
// mapping compiles once, in set-up, so the op is FFT compute plus the
// pipelined point-to-point exchange.
type fftStep struct {
	n, blocks, procs int
	field            []complex128 // n×n input, row-major
	spectrum         []complex128 // its forward transform on one goroutine
}

func newFFTStep(n, blocks, procs int) *fftStep { return &fftStep{n: n, blocks: blocks, procs: procs} }

func (w *fftStep) name() string                      { return "fft-step" }
func (w *fftStep) ranks() int                        { return w.procs }
func (w *fftStep) launchOptions() []mpi.LaunchOption { return nil }
func (w *fftStep) inputBytes() int64                 { return int64(w.n) * int64(w.n) * 16 }
func (w *fftStep) cleanup()                          {}

// Set-up compiles the plans and runs a forward transform and a warm-up
// step, FFT arithmetic whose time follows the kernel's.
func (w *fftStep) setupIsCompute() bool { return true }

func (w *fftStep) generate(seed uint64, dir string) error {
	r := newRNG(seed ^ 0x4646_5400)
	w.field = make([]complex128, w.n*w.n)
	for i := range w.field {
		w.field[i] = complex(r.unit(), r.unit())
	}
	w.spectrum = append([]complex128(nil), w.field...)
	_, err := serialFFT2D(w.spectrum, w.n, false)
	return err
}

// serialFFT2D transforms an n×n grid in place on one goroutine with a
// single-rank fft.Plan: rows, then columns.
func serialFFT2D(x []complex128, n int, inverse bool) (time.Duration, error) {
	plan, err := fft.NewPlan(n)
	if err != nil {
		return 0, err
	}
	col := make([]complex128, n)
	start := time.Now()
	tf := plan.Forward
	if inverse {
		tf = plan.Inverse
	}
	for y := 0; y < n; y++ {
		tf(x[y*n : (y+1)*n])
	}
	for c := 0; c < n; c++ {
		for y := 0; y < n; y++ {
			col[y] = x[y*n+c]
		}
		tf(col)
		for y := 0; y < n; y++ {
			x[y*n+c] = col[y]
		}
	}
	return time.Since(start), nil
}

// serial is the same timestep on one goroutine: forward and inverse 2D
// transforms of the whole grid with plain strided copies for the columns.
func (w *fftStep) serial() (time.Duration, error) {
	x := append([]complex128(nil), w.field...)
	fwd, err := serialFFT2D(x, w.n, false)
	if err != nil {
		return 0, err
	}
	inv, err := serialFFT2D(x, w.n, true)
	return fwd + inv, err
}

// roundTripTol bounds |out−in| per cell after Forward+Inverse.
const roundTripTol = 1e-9

func (w *fftStep) newRank(c *mpi.Comm, traced bool) (rankState, error) {
	r := &fftRank{w: w, c: c}
	var opts []core.Option
	if traced {
		// The transposes run inside Dist2D.Step, out of the benchmark's
		// reach; the descriptors' own tracer is the only place their
		// spans can come from.
		r.recOrigin = time.Now()
		r.rec = trace.NewRecorderAt(r.recOrigin)
		opts = append(opts, core.WithTracer(r.rec))
	}
	start := time.Now()
	d, err := fft.NewDist2D(c, w.n, w.blocks, opts...)
	r.mapping = time.Since(start)
	if err != nil {
		return nil, err
	}
	r.d = d
	h := w.n / w.procs
	copy(d.Rows(), w.field[c.Rank()*h*w.n:(c.Rank()+1)*h*w.n])
	r.orig = append([]complex128(nil), d.Rows()...)

	// Check the distributed forward spectrum once against the one-rank plan.
	if err := d.Forward(c); err != nil {
		return nil, err
	}
	cols := w.n / w.procs
	for y := 0; y < w.n; y++ {
		for x := 0; x < cols; x++ {
			got, want := d.Pencils()[y*cols+x], w.spectrum[y*w.n+c.Rank()*cols+x]
			if cmplx.Abs(got-want) > roundTripTol*(1+cmplx.Abs(want)) {
				return nil, fmt.Errorf("spectrum (%d,%d) = %v, want %v", c.Rank()*cols+x, y, got, want)
			}
		}
	}
	return r, d.Inverse(c)
}

type fftRank struct {
	w       *fftStep
	c       *mpi.Comm
	d       *fft.Dist2D
	orig    []complex128
	mapping time.Duration

	rec       *trace.Recorder
	recOrigin time.Time
	timings   []core.RoundTiming
}

func (r *fftRank) op(sp *spans) error {
	sp.begin("fft.step")
	err := r.d.Step(r.c)
	sp.end()
	return err
}

// verify checks the round trip cell by cell against the input.
func (r *fftRank) verify() error {
	for i, v := range r.d.Rows() {
		if cmplx.Abs(v-r.orig[i]) > roundTripTol {
			return fmt.Errorf("round trip cell %d = %v, want %v", i, v, r.orig[i])
		}
	}
	return nil
}

func (r *fftRank) corrupt() { r.d.Rows()[len(r.orig)/2] += 1 }

func (r *fftRank) sample() exchSample {
	fwd, inv := r.d.Descriptors()
	r.timings = fwd.AppendTimings(r.timings[:0])
	r.timings = inv.AppendTimings(r.timings)
	s := timingSample(r.timings, fwd)
	s.peakStaging = max(fwd.LastPeakStaging(), inv.LastPeakStaging())
	return s
}

func (r *fftRank) facts() rankFacts {
	fwd, inv := r.d.Descriptors()
	return rankFacts{mapping: r.mapping,
		stats:        []planStats{toPlanStats(fwd.Plan().Stats()), toPlanStats(inv.Plan().Stats())},
		boundedSteps: fwd.BoundedSteps() + inv.BoundedSteps()}
}

// programSpans returns the whole-exchange spans the descriptors' tracer
// recorded, as wall-clock intervals.
func (r *fftRank) programSpans() (name string, iv [][2]time.Time) {
	if r.rec == nil {
		return "", nil
	}
	for _, e := range r.rec.Events() {
		if e.Name == "exchange" {
			s := r.recOrigin.Add(e.Start)
			iv = append(iv, [2]time.Time{s, s.Add(e.Dur)})
		}
	}
	return "core.exchange", iv
}

// handStep times fft.Dist2D.HandStep, the hand-written transpose
// baseline with identical FFT compute, on the workload's world. It
// returns the median wall time of ops collective steps.
func (w *fftStep) handStep(ops int) (time.Duration, error) {
	g := newGate(w.procs)
	var times []float64
	var start time.Time
	err := mpi.Launch(w.procs, func(c *mpi.Comm) error {
		d, err := fft.NewDist2D(c, w.n, w.blocks)
		if err != nil {
			return err
		}
		h := w.n / w.procs
		copy(d.Rows(), w.field[c.Rank()*h*w.n:(c.Rank()+1)*h*w.n])
		for i := 0; i <= ops; i++ {
			g.wait(func() bool { start = time.Now(); return false })
			if err := d.HandStep(c); err != nil {
				g.abort()
				return err
			}
			g.wait(func() bool {
				if i > 0 { // the first step warms the buffers
					times = append(times, float64(time.Since(start)))
				}
				return false
			})
		}
		for i, v := range d.Rows() {
			if cmplx.Abs(v-w.field[c.Rank()*h*w.n+i]) > roundTripTol*float64(ops+1) {
				return fmt.Errorf("hand step round trip cell %d = %v", i, v)
			}
		}
		return nil
	})
	return time.Duration(median(times)), err
}

// geometries mirrors fft.Dist2D's two transposes: row slabs cut into
// blocks to column pencils, and pencils cut into blocks back to slabs.
func (w *fftStep) geometries() []geom {
	h, cols := w.n/w.procs, w.n/w.procs
	fwd := geom{elem: 16, chunks: make([][]grid.Box, w.procs), needs: make([]grid.Box, w.procs)}
	inv := geom{elem: 16, chunks: make([][]grid.Box, w.procs), needs: make([]grid.Box, w.procs)}
	for r := 0; r < w.procs; r++ {
		for j := 0; j < w.blocks; j++ {
			fwd.chunks[r] = append(fwd.chunks[r], grid.Box2(0, r*h+j*h/w.blocks, w.n, h/w.blocks))
			inv.chunks[r] = append(inv.chunks[r], grid.Box2(r*cols, j*w.n/w.blocks, cols, w.n/w.blocks))
		}
		fwd.needs[r] = grid.Box2(r*cols, 0, cols, w.n)
		inv.needs[r] = grid.Box2(0, r*h, w.n, h)
	}
	return []geom{fwd, inv}
}
