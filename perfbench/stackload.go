package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ddr/internal/core"
	"ddr/internal/experiments"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/tiff"
)

// stackLoad is use case A, cold: every op reads and decodes each rank's
// round-robin slices, compiles a fresh mapping, and runs the paper's
// default alltoallw exchange into near-cube render bricks. Round-robin
// ownership gives every rank depth/ranks chunks, so one exchange runs
// that many alltoallw rounds — the hard case of the paper's Table III.
type stackLoad struct {
	edge  int // the stack is edge×edge×edge 16-bit samples, one file per slice
	procs int
	dir   string
	fill  stackFill

	chunks [][]grid.Box
	needs  []grid.Box
}

// stackFill is the seeded closed form of every sample: the value at
// (x, y, z) is a + b·x + c·y + d·z modulo 2^16, so any delivered cell
// can be checked without keeping a copy of the stack.
type stackFill struct{ a, b, c, d uint64 }

func newStackFill(seed uint64) stackFill {
	r := newRNG(seed ^ 0x5354_4143_4b00)
	return stackFill{a: r.next(), b: r.next() | 1, c: r.next() | 1, d: r.next() | 1}
}

func (f stackFill) at(x, y, z int) uint16 {
	return uint16(f.a + f.b*uint64(x) + f.c*uint64(y) + f.d*uint64(z))
}

func newStackLoad(edge, procs int) *stackLoad {
	domain := grid.Box3(0, 0, 0, edge, edge, edge)
	chunks, needs := experiments.StackGeometry(domain, procs, experiments.RoundRobin)
	return &stackLoad{edge: edge, procs: procs, chunks: chunks, needs: needs}
}

func (w *stackLoad) name() string                      { return "stack-load" }
func (w *stackLoad) ranks() int                        { return w.procs }
func (w *stackLoad) launchOptions() []mpi.LaunchOption { return nil }
func (w *stackLoad) inputBytes() int64                 { return int64(w.edge) * int64(w.edge) * int64(w.edge) * 2 }

// Set-up times moved less with the host's speed than the kernel's did
// (METRICS.md), so scaling them would add the kernel's noise.
func (w *stackLoad) setupIsCompute() bool { return false }

func (w *stackLoad) generate(seed uint64, dir string) error {
	w.fill = newStackFill(seed)
	w.dir = filepath.Join(dir, fmt.Sprintf("stack-%d", seed))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	img := &tiff.Image{Width: w.edge, Height: w.edge, BitsPerSample: 16, SampleFormat: tiff.FormatUint,
		Pixels: make([]byte, w.edge*w.edge*2)}
	for z := 0; z < w.edge; z++ {
		for y := 0; y < w.edge; y++ {
			for x := 0; x < w.edge; x++ {
				binary.LittleEndian.PutUint16(img.Pixels[(y*w.edge+x)*2:], w.fill.at(x, y, z))
			}
		}
		if err := tiff.WriteFile(tiff.SlicePath(w.dir, z), img); err != nil {
			return fmt.Errorf("write stack: %w", err)
		}
	}
	return nil
}

func (w *stackLoad) cleanup() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func (w *stackLoad) info() tiff.StackInfo {
	return tiff.StackInfo{Dir: w.dir, Width: w.edge, Height: w.edge, Depth: w.edge,
		BitsPerSample: 16, SampleFormat: tiff.FormatUint}
}

func (w *stackLoad) newRank(c *mpi.Comm, traced bool) (rankState, error) {
	need := w.needs[c.Rank()]
	return &stackRank{w: w, c: c, own: w.chunks[c.Rank()], need: need,
		bufs: make([][]byte, len(w.chunks[c.Rank()])), needBuf: make([]byte, need.Volume()*2)}, nil
}

type stackRank struct {
	w       *stackLoad
	c       *mpi.Comm
	own     []grid.Box
	need    grid.Box
	bufs    [][]byte
	needBuf []byte
	desc    *core.Descriptor
	timings []core.RoundTiming
}

func (r *stackRank) op(sp *spans) error {
	for i, ch := range r.own {
		sp.begin("tiff.read")
		img, err := tiff.ReadFile(tiff.SlicePath(r.w.dir, ch.Offset[2]))
		sp.end()
		if err != nil {
			return err
		}
		if len(img.Pixels) != ch.Volume()*2 {
			return fmt.Errorf("slice %d decoded to %d bytes, want %d", ch.Offset[2], len(img.Pixels), ch.Volume()*2)
		}
		r.bufs[i] = img.Pixels
	}
	sp.begin("core.mapping")
	desc, err := core.NewDescriptor(r.w.procs, core.Layout3D, core.Uint8, core.WithElemSize(2))
	if err == nil {
		err = desc.SetupDataMapping(r.c, r.own, r.need)
	}
	sp.end()
	if err != nil {
		return err
	}
	r.desc = desc
	sp.begin("core.exchange")
	err = desc.ReorganizeData(r.c, r.bufs, r.needBuf)
	sp.end()
	return err
}

// verify checks the brick cell by cell, then clears it so the next op
// must deliver every byte again.
func (r *stackRank) verify() error {
	b := r.need
	i := 0
	for z := b.Offset[2]; z < b.End(2); z++ {
		for y := b.Offset[1]; y < b.End(1); y++ {
			for x := b.Offset[0]; x < b.End(0); x++ {
				if got, want := binary.LittleEndian.Uint16(r.needBuf[i:]), r.w.fill.at(x, y, z); got != want {
					clear(r.needBuf)
					return fmt.Errorf("brick cell (%d,%d,%d) = %d, want %d", x, y, z, got, want)
				}
				i += 2
			}
		}
	}
	clear(r.needBuf)
	return nil
}

func (r *stackRank) corrupt() { r.needBuf[len(r.needBuf)/2] ^= 0x40 }

func (r *stackRank) sample() exchSample {
	r.timings = r.desc.AppendTimings(r.timings[:0])
	return timingSample(r.timings, r.desc)
}

func (r *stackRank) facts() rankFacts {
	return rankFacts{stats: []planStats{toPlanStats(r.desc.Plan().Stats())}, boundedSteps: r.desc.BoundedSteps()}
}

// serial is the same load on one goroutine: read every slice and copy
// each brick's window out of it with plain copies.
func (w *stackLoad) serial() (time.Duration, error) {
	bricks := make([][]byte, len(w.needs))
	for i, b := range w.needs {
		bricks[i] = make([]byte, b.Volume()*2)
	}
	start := time.Now()
	for z := 0; z < w.edge; z++ {
		img, err := tiff.ReadFile(tiff.SlicePath(w.dir, z))
		if err != nil {
			return 0, err
		}
		for i, b := range w.needs {
			if z < b.Offset[2] || z >= b.End(2) {
				continue
			}
			row := b.Dims[0] * 2
			for y := 0; y < b.Dims[1]; y++ {
				src := ((b.Offset[1]+y)*w.edge + b.Offset[0]) * 2
				dst := ((z-b.Offset[2])*b.Dims[1] + y) * row
				copy(bricks[i][dst:dst+row], img.Pixels[src:src+row])
			}
		}
	}
	return time.Since(start), nil
}

// noDDR times the paper's comparison loader, experiments.LoadStackNoDDR,
// on the workload's world: every rank reads every slice its brick
// touches. It returns the wall time of one collective load.
func (w *stackLoad) noDDR() (time.Duration, error) {
	g := newGate(w.procs)
	var start, end time.Time
	err := mpi.Launch(w.procs, func(c *mpi.Comm) error {
		g.wait(func() bool { start = time.Now(); return false })
		if _, err := experiments.LoadStackNoDDR(c, w.info()); err != nil {
			g.abort()
			return err
		}
		g.wait(func() bool { end = time.Now(); return false })
		return nil
	})
	return end.Sub(start), err
}

func (w *stackLoad) geometries() []geom {
	return []geom{{elem: 2, chunks: w.chunks, needs: w.needs}}
}
