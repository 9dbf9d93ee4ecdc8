package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/transit"
)

// boundedStream is use case B under a memory cap: producers stream row
// slabs of a float32 field over the shm rings through a transit.Coupling;
// each consumer regrids the slabs it received into one square through a
// descriptor whose memory budget forces the bounded step schedule. One
// op is one frame, and producers send frame s+1 only after every
// consumer has regridded frame s.
type boundedStream struct {
	edge      int // the field is edge×edge float32
	producers int
	consumers int
	budget    int
	fill      streamFill
	slabs     [2][][]byte // [frame parity][producer] row slab bytes
}

// streamFill is the seeded closed form of every field cell: frame
// parity p holds a + b·x + c·y + p·e modulo 2^24 at (x, y), an integer
// float32 represents exactly. e is odd, so consecutive frames differ in
// every cell and a cell left over from the previous frame is caught.
type streamFill struct{ a, b, c, e uint64 }

func (f streamFill) at(x, y, parity int) float32 {
	return float32((f.a + f.b*uint64(x) + f.c*uint64(y) + uint64(parity)*f.e) & (1<<24 - 1))
}

func newBoundedStream(edge, producers, consumers, budget int) *boundedStream {
	return &boundedStream{edge: edge, producers: producers, consumers: consumers, budget: budget}
}

func (w *boundedStream) name() string { return "bounded-stream" }
func (w *boundedStream) ranks() int   { return w.producers + w.consumers }
func (w *boundedStream) launchOptions() []mpi.LaunchOption {
	return []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm)}
}
func (w *boundedStream) inputBytes() int64 { return int64(w.edge) * int64(w.edge) * 4 }
func (w *boundedStream) cleanup()          {}

// Set-up times moved less with the host's speed than the kernel's did
// (METRICS.md), so scaling them would add the kernel's noise.
func (w *boundedStream) setupIsCompute() bool { return false }

func (w *boundedStream) slab(p int) grid.Box {
	h := w.edge / w.producers
	return grid.Box2(0, p*h, w.edge, h)
}

// square is consumer k's need: the field cut into a √k×√k grid of squares.
func (w *boundedStream) square(k int) grid.Box {
	side := int(math.Sqrt(float64(w.consumers)))
	s := w.edge / side
	return grid.Box2(k%side*s, k/side*s, s, s)
}

func (w *boundedStream) generate(seed uint64, dir string) error {
	r := newRNG(seed ^ 0x5354_5245_414d)
	w.fill = streamFill{a: r.next(), b: r.next() | 1, c: r.next() | 1, e: r.next() | 1}
	for parity := range w.slabs {
		w.slabs[parity] = make([][]byte, w.producers)
		for p := range w.slabs[parity] {
			b := w.slab(p)
			buf := make([]byte, b.Volume()*4)
			i := 0
			for y := b.Offset[1]; y < b.End(1); y++ {
				for x := b.Offset[0]; x < b.End(0); x++ {
					binary.LittleEndian.PutUint32(buf[i:], math.Float32bits(w.fill.at(x, y, parity)))
					i += 4
				}
			}
			w.slabs[parity][p] = buf
		}
	}
	return nil
}

func (w *boundedStream) newRank(c *mpi.Comm, traced bool) (rankState, error) {
	cp, err := transit.NewCoupling(c, w.producers, w.consumers)
	if err != nil {
		return nil, err
	}
	r := &streamRank{w: w, cp: cp}
	if cp.Role == transit.Producer {
		return r, nil
	}
	k := cp.Local.Rank()
	r.need = w.square(k)
	r.needBuf = make([]byte, r.need.Volume()*4)
	lo, hi := cp.ProducersOf(k)
	own := make([]grid.Box, 0, hi-lo)
	for p := lo; p < hi; p++ {
		own = append(own, w.slab(p))
	}
	r.bufs = make([][]byte, len(own))
	start := time.Now()
	if r.desc, err = core.NewDescriptor(w.consumers, core.Layout2D, core.Float32, core.WithMemoryBudget(w.budget)); err != nil {
		return nil, err
	}
	r.rg = transit.NewRegridder(r.desc, r.need)
	err = r.rg.Connect(cp.Local, own)
	r.mapping = time.Since(start)
	return r, err
}

type streamRank struct {
	w     *boundedStream
	cp    *transit.Coupling
	frame int

	// consumer side
	need    grid.Box
	needBuf []byte
	bufs    [][]byte
	desc    *core.Descriptor
	rg      *transit.Regridder
	mapping time.Duration
	timings []core.RoundTiming
}

func (r *streamRank) op(sp *spans) error {
	r.frame++
	if r.cp.Role == transit.Producer {
		sp.begin("transit.send")
		err := r.cp.Send(r.frame, r.w.slabs[r.frame&1][r.cp.Local.Rank()])
		sp.end()
		return err
	}
	sp.begin("transit.recv")
	msgs, err := r.cp.Recv(r.frame)
	sp.end()
	if err != nil {
		return err
	}
	for i, m := range msgs {
		r.bufs[i] = m.Data
	}
	sp.begin("core.exchange")
	err = r.rg.Regrid(r.cp.Local, r.bufs, r.needBuf)
	sp.end()
	return err
}

// verify checks the consumer's square cell by cell against the frame
// it should hold; producers are delivered nothing.
func (r *streamRank) verify() error {
	if r.cp.Role == transit.Producer {
		return nil
	}
	b := r.need
	i := 0
	for y := b.Offset[1]; y < b.End(1); y++ {
		for x := b.Offset[0]; x < b.End(0); x++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(r.needBuf[i:]))
			if want := r.w.fill.at(x, y, r.frame&1); got != want {
				return fmt.Errorf("frame %d square cell (%d,%d) = %v, want %v", r.frame, x, y, got, want)
			}
			i += 4
		}
	}
	return nil
}

func (r *streamRank) corrupt() {
	if r.needBuf != nil {
		r.needBuf[len(r.needBuf)/2] ^= 0x40
	}
}

func (r *streamRank) sample() exchSample {
	if r.desc == nil {
		return exchSample{}
	}
	r.timings = r.desc.AppendTimings(r.timings[:0])
	return timingSample(r.timings, r.desc)
}

func (r *streamRank) facts() rankFacts {
	if r.desc == nil {
		return rankFacts{}
	}
	return rankFacts{mapping: r.mapping, stats: []planStats{toPlanStats(r.desc.Plan().Stats())},
		boundedSteps: r.desc.BoundedSteps()}
}

// serial is the same regrid on one goroutine: copy every row of every
// producer slab into the square that needs it.
func (w *boundedStream) serial() (time.Duration, error) {
	squares := make([][]byte, w.consumers)
	for k := range squares {
		squares[k] = make([]byte, w.square(k).Volume()*4)
	}
	start := time.Now()
	for p, buf := range w.slabs[0] {
		sb := w.slab(p)
		for k := range squares {
			q := w.square(k)
			ov, ok := sb.Intersect(q)
			if !ok {
				continue
			}
			row := ov.Dims[0] * 4
			for y := ov.Offset[1]; y < ov.End(1); y++ {
				src := ((y-sb.Offset[1])*sb.Dims[0] + ov.Offset[0] - sb.Offset[0]) * 4
				dst := ((y-q.Offset[1])*q.Dims[0] + ov.Offset[0] - q.Offset[0]) * 4
				copy(squares[k][dst:dst+row], buf[src:src+row])
			}
		}
	}
	return time.Since(start), nil
}

func (w *boundedStream) geometries() []geom {
	g := geom{elem: 4, chunks: make([][]grid.Box, w.consumers), needs: make([]grid.Box, w.consumers)}
	per := w.producers / w.consumers
	for k := range g.needs {
		g.needs[k] = w.square(k)
		for p := k * per; p < (k+1)*per; p++ {
			g.chunks[k] = append(g.chunks[k], w.slab(p))
		}
	}
	return []geom{g}
}
