package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Golden wire traces pin what every exchange shape puts on the wire for
// one fixed 4-rank 2D geometry: each rank's sends in order per
// destination link (the tag of every message, as a pass-through fault
// injector sees them) and the bytes the exchange itself sent to each
// peer (the Comm.Traffic delta across the exchange call). Links are
// per-destination FIFOs, so the per-link order is deterministic while
// the interleaving across links is not; the fixture records the former.
// The mapping collectives run on the same links before the exchange, so
// their tags are part of each link's sequence too. Any change to the
// tags, the message order, or the byte split between peers shows up as
// a fixture diff. Regenerate with:
// go test ./internal/core -run TestGoldenWireTrace -update.

// wireRecorder is a pass-through mpi.FaultInjector that logs the tag of
// every first delivery attempt per (src, dst) link.
type wireRecorder struct {
	mu   sync.Mutex
	tags map[[2]int][]int
}

func (w *wireRecorder) FaultFor(src, dst, tag int, _ uint64, attempt int) mpi.Fault {
	if attempt == 0 {
		w.mu.Lock()
		w.tags[[2]int{src, dst}] = append(w.tags[[2]int{src, dst}], tag)
		w.mu.Unlock()
	}
	return mpi.Fault{}
}

// wireLink is one destination link's message sequence.
type wireLink struct {
	Dst  int   `json:"dst"`
	Tags []int `json:"tags"`
}

// wireRank is one rank's recorded traffic.
type wireRank struct {
	Rank      int        `json:"rank"`
	Depth     int        `json:"depth"`
	Links     []wireLink `json:"links"`
	PeerBytes []int64    `json:"peer_bytes"`
}

// wireShape is one exchange shape of the fixture.
type wireShape struct {
	Shape string     `json:"shape"`
	Ranks []wireRank `json:"ranks"`
}

// wireGeometry is the fixed 4-rank 32x32 geometry: ranks 0 and 3 own two
// chunks each (two rounds), and the needs mix strided column strips with
// a full-width row band whose overlaps are contiguous on both sides.
func wireGeometry() (own [][]grid.Box, need []grid.Box) {
	own = [][]grid.Box{
		{grid.Box2(0, 0, 16, 8), grid.Box2(0, 8, 16, 8)},
		{grid.Box2(16, 0, 16, 16)},
		{grid.Box2(0, 16, 32, 8)},
		{grid.Box2(0, 24, 16, 8), grid.Box2(16, 24, 16, 8)},
	}
	need = []grid.Box{
		grid.Box2(0, 0, 8, 32),
		grid.Box2(8, 0, 8, 32),
		grid.Box2(16, 0, 16, 20),
		grid.Box2(0, 20, 32, 12),
	}
	return own, need
}

// wireBudget forces the bounded backend on the fixture geometry at the
// one-class minimum, so every overlap splits into several slices spread
// over many steps.
func wireBudget(t *testing.T) int {
	own, need := wireGeometry()
	p, err := NewPlanFromGeometry(0, 4, own, need)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << minStagingShift
	if fp := p.SingleShotFootprint(ModePointToPoint); fp <= budget {
		t.Fatalf("budget %d does not force the bounded backend (footprint %d)", budget, fp)
	}
	return budget
}

// recordWire launches a 4-rank world under a recording injector and
// runs body on every rank; body returns the depth the exchange ran at
// and performs the exchange through the supplied bracket, which
// snapshots the rank's per-peer traffic around it.
func recordWire(t *testing.T, shape string, body func(c *mpi.Comm, exchange func(func() error) error) (int, error)) wireShape {
	t.Helper()
	const n = 4
	rec := &wireRecorder{tags: map[[2]int][]int{}}
	out := wireShape{Shape: shape, Ranks: make([]wireRank, n)}
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		exchange := func(f func() error) error {
			before := c.Traffic().PeerBytesSent
			if err := f(); err != nil {
				return err
			}
			after := c.Traffic().PeerBytesSent
			out.Ranks[r].PeerBytes = make([]int64, n)
			for i := range after {
				out.Ranks[r].PeerBytes[i] = after[i] - before[i]
			}
			return nil
		}
		depth, err := body(c, exchange)
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
		out.Ranks[r].Rank, out.Ranks[r].Depth = r, depth
		return c.Barrier()
	}, mpi.WithFaultInjector(rec))
	if err != nil {
		t.Fatalf("%s: %v", shape, err)
	}
	for r := range out.Ranks {
		out.Ranks[r].Links = []wireLink{}
		for dst := 0; dst < n; dst++ {
			if tags := rec.tags[[2]int{r, dst}]; len(tags) > 0 {
				out.Ranks[r].Links = append(out.Ranks[r].Links, wireLink{Dst: dst, Tags: tags})
			}
		}
	}
	return out
}

// wireDescriptorShape runs one single-need Descriptor exchange.
func wireDescriptorShape(t *testing.T, shape string, opts ...Option) wireShape {
	own, need := wireGeometry()
	return recordWire(t, shape, func(c *mpi.Comm, exchange func(func() error) error) (int, error) {
		r := c.Rank()
		d, err := NewDescriptor(4, Layout2D, Float32, opts...)
		if err != nil {
			return 0, err
		}
		if err := d.SetupDataMapping(c, own[r], need[r]); err != nil {
			return 0, err
		}
		bufs := make([][]byte, len(own[r]))
		for i, b := range own[r] {
			bufs[i] = fillBox(b, 4)
		}
		dst := make([]byte, need[r].Volume()*4)
		if err := exchange(func() error { return d.ReorganizeData(c, bufs, dst) }); err != nil {
			return 0, err
		}
		return d.LastPipelineDepth(), checkBox(dst, need[r], 4, nil, 0)
	})
}

func TestGoldenWireTrace(t *testing.T) {
	budget := wireBudget(t)
	shapes := []func() wireShape{
		func() wireShape { return wireDescriptorShape(t, "alltoallw", WithExchangeMode(ModeAlltoallw)) },
		func() wireShape {
			return wireDescriptorShape(t, "p2p_depth1", WithExchangeMode(ModePointToPoint), WithPipelineDepth(1))
		},
		func() wireShape {
			return wireDescriptorShape(t, "p2p_depth2", WithExchangeMode(ModePointToPoint), WithPipelineDepth(2))
		},
		func() wireShape { return wireDescriptorShape(t, "fused", WithExchangeMode(ModePointToPointFused)) },
		func() wireShape {
			return wireDescriptorShape(t, "bounded_depth1", WithExchangeMode(ModePointToPoint),
				WithMemoryBudget(budget), WithPipelineDepth(1))
		},
		func() wireShape {
			return wireDescriptorShape(t, "bounded_depth2", WithExchangeMode(ModePointToPoint),
				WithMemoryBudget(budget), WithPipelineDepth(2))
		},
		func() wireShape { return wireDeltaShape(t) },
		func() wireShape { return wireMultiShape(t) },
	}
	var all []wireShape
	for _, f := range shapes {
		all = append(all, f())
	}
	got, err := json.MarshalIndent(struct {
		Budget int         `json:"bounded_budget"`
		Shapes []wireShape `json:"shapes"`
	}{budget, all}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_wire_trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire trace diverges from %s;\nif the wire change is intentional, regenerate with -update\ngot:\n%s", path, got)
	}
}

// wireDeltaShape resizes the fixture's need boxes onto a new layout in
// which rank 0 leaves and the others widen, through the collective delta
// compiler and the resize exchange.
func wireDeltaShape(t *testing.T) wireShape {
	_, oldNeeds := wireGeometry()
	newNeeds := []grid.Box{
		grid.Box2(0, 0, 0, 0),
		grid.Box2(0, 0, 16, 32),
		grid.Box2(16, 0, 16, 32),
		grid.Box2(0, 16, 32, 16),
	}
	return recordWire(t, "delta", func(c *mpi.Comm, exchange func(func() error) error) (int, error) {
		r := c.Rank()
		dc, err := NewDeltaCompiler(4, 4)
		if err != nil {
			return 0, err
		}
		p, err := dc.Compile(c, oldNeeds[r], newNeeds[r])
		if err != nil {
			return 0, err
		}
		var oldBuf, newBuf []byte
		if !oldNeeds[r].Empty() {
			oldBuf = fillBox(oldNeeds[r], 4)
		}
		if !newNeeds[r].Empty() {
			newBuf = make([]byte, newNeeds[r].Volume()*4)
		}
		if err := exchange(func() error { return p.Exchange(c, oldBuf, newBuf) }); err != nil {
			return 0, err
		}
		if newBuf == nil {
			return 1, nil
		}
		covered := func(x, y, z int) bool {
			for _, b := range oldNeeds {
				if !b.Empty() && b.ContainsPoint([grid.MaxDims]int{x, y, z}) {
					return true
				}
			}
			return false
		}
		return 1, checkBox(newBuf, newNeeds[r], 4, covered, 0)
	})
}

// wireMultiShape maps the fixture's owned chunks onto two need boxes per
// rank through the MultiDescriptor.
func wireMultiShape(t *testing.T) wireShape {
	own, _ := wireGeometry()
	needs := [][]grid.Box{
		{grid.Box2(0, 0, 4, 32), grid.Box2(28, 0, 4, 32)},
		{grid.Box2(4, 4, 24, 6), grid.Box2(12, 12, 8, 8)},
		{grid.Box2(0, 0, 32, 4), grid.Box2(6, 18, 18, 10)},
		{grid.Box2(0, 28, 32, 4)},
	}
	return recordWire(t, "multi", func(c *mpi.Comm, exchange func(func() error) error) (int, error) {
		r := c.Rank()
		d, err := NewMultiDescriptor(4, Layout2D, Float32)
		if err != nil {
			return 0, err
		}
		if err := d.SetupDataMapping(c, own[r], needs[r]); err != nil {
			return 0, err
		}
		bufs := make([][]byte, len(own[r]))
		for i, b := range own[r] {
			bufs[i] = fillBox(b, 4)
		}
		dsts := make([][]byte, len(needs[r]))
		for i, b := range needs[r] {
			dsts[i] = make([]byte, b.Volume()*4)
		}
		if err := exchange(func() error { return d.ReorganizeData(c, bufs, dsts) }); err != nil {
			return 0, err
		}
		for i, b := range needs[r] {
			if err := checkBox(dsts[i], b, 4, nil, 0); err != nil {
				return 0, fmt.Errorf("need %d: %w", i, err)
			}
		}
		return 1, nil
	})
}
