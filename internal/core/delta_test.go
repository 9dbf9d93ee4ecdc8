package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

const deltaSentinel = 0xA5

// genResizeNeeds draws a seeded resize geometry for a world of n ranks
// in a 64×64 2D domain: most ranks survive with a new need box perturbed
// from (and usually overlapping) their old one, some leave (zero-extent
// new need) and some join (zero-extent old need). Old needs may overlap
// across ranks, as consumer needs do.
func genResizeNeeds(rng *rand.Rand, n int) (oldNeeds, newNeeds []grid.Box) {
	empty := grid.Box2(0, 0, 0, 0)
	randBox := func() grid.Box {
		w := 4 + rng.Intn(24)
		h := 4 + rng.Intn(24)
		return grid.Box2(rng.Intn(64-w), rng.Intn(64-h), w, h)
	}
	oldNeeds = make([]grid.Box, n)
	newNeeds = make([]grid.Box, n)
	for r := 0; r < n; r++ {
		switch role := rng.Intn(8); {
		case role == 0: // joiner
			oldNeeds[r] = empty
			newNeeds[r] = randBox()
		case role == 1: // leaver
			oldNeeds[r] = randBox()
			newNeeds[r] = empty
		case role == 2: // survivor with an unrelated new need
			oldNeeds[r] = randBox()
			newNeeds[r] = randBox()
		default: // survivor whose need shifted and resized a little
			oldNeeds[r] = randBox()
			nb := oldNeeds[r]
			for a := 0; a < 2; a++ {
				nb.Offset[a] += rng.Intn(9) - 4
				nb.Dims[a] += rng.Intn(7) - 3
				if nb.Dims[a] < 1 {
					nb.Dims[a] = 1
				}
				if nb.Offset[a] < 0 {
					nb.Offset[a] = 0
				}
				if nb.Offset[a]+nb.Dims[a] > 64 {
					nb.Offset[a] = 64 - nb.Dims[a]
				}
			}
			newNeeds[r] = nb
		}
	}
	return oldNeeds, newNeeds
}

// runDeltaExchange executes the compiled delta plans on an in-process
// world: every rank fills its old need with the canonical pattern and a
// sentinel-filled new buffer, exchanges, and returns the gathered new
// buffers.
func runDeltaExchange(t *testing.T, plans []*DeltaPlan, oldNeeds, newNeeds []grid.Box, elemSize int, perturbRank int) [][]byte {
	t.Helper()
	n := len(plans)
	out := make([][]byte, n)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		p := plans[r]
		if r == perturbRank && !p.PerturbDeltaForTest() {
			return fmt.Errorf("rank %d: no perturbable recv region", r)
		}
		var oldBuf, newBuf []byte
		if !oldNeeds[r].Empty() {
			oldBuf = fillBox(oldNeeds[r], elemSize)
		}
		if !newNeeds[r].Empty() {
			newBuf = bytes.Repeat([]byte{deltaSentinel}, newNeeds[r].Volume()*elemSize)
		}
		if err := p.Exchange(c, oldBuf, newBuf); err != nil {
			return err
		}
		out[r] = newBuf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runFullOracle redistributes the same data through the production full
// compiler and exchange — each rank owns exactly its old need box as one
// chunk — returning the gathered need buffers. Old needs may overlap, so
// validation stays off; overlapping owners carry identical canonical
// bytes, making the result well defined. The unpack runs on one worker:
// overlapping owners scatter into the same need cells, which parallel
// workers would write concurrently.
func runFullOracle(t *testing.T, oldNeeds, newNeeds []grid.Box, elemSize int) [][]byte {
	t.Helper()
	n := len(oldNeeds)
	out := make([][]byte, n)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		desc, err := NewDescriptor(n, Layout2D, Uint8, WithElemSize(elemSize), WithParallelism(1))
		if err != nil {
			return err
		}
		var own []grid.Box
		var ownBufs [][]byte
		if !oldNeeds[r].Empty() {
			own = []grid.Box{oldNeeds[r]}
			ownBufs = [][]byte{fillBox(oldNeeds[r], elemSize)}
		}
		if err := desc.SetupDataMapping(c, own, newNeeds[r]); err != nil {
			return err
		}
		var needBuf []byte
		if !newNeeds[r].Empty() {
			needBuf = bytes.Repeat([]byte{deltaSentinel}, newNeeds[r].Volume()*elemSize)
		}
		if err := desc.ReorganizeData(c, ownBufs, needBuf); err != nil {
			return err
		}
		out[r] = needBuf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompileDeltaDifferential sweeps seeded resize geometries and
// checks the tentpole's oracle property: executing the incremental delta
// plans yields buffers byte-identical to a full re-exchange that treats
// the old needs as owned chunks, and both match the closed-form
// prediction (canonical value where any old rank held the cell, sentinel
// elsewhere).
func TestCompileDeltaDifferential(t *testing.T) {
	const elemSize = 4
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		oldNeeds, newNeeds := genResizeNeeds(rng, n)
		plans, err := CompileDelta(elemSize, oldNeeds, newNeeds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := runDeltaExchange(t, plans, oldNeeds, newNeeds, elemSize, -1)
		want := runFullOracle(t, oldNeeds, newNeeds, elemSize)
		covered := func(x, y, z int) bool {
			for _, b := range oldNeeds {
				if !b.Empty() && b.ContainsPoint([grid.MaxDims]int{x, y, z}) {
					return true
				}
			}
			return false
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("seed %d rank %d: delta result differs from full-recompile oracle", seed, r)
			}
			if newNeeds[r].Empty() {
				continue
			}
			if err := checkBox(got[r], newNeeds[r], elemSize, covered, deltaSentinel); err != nil {
				t.Fatalf("seed %d rank %d: %v", seed, r, err)
			}
			// The plan's byte accounting must cover exactly the covered
			// cells: retained + received + uncovered = need volume.
			p := plans[r]
			var uncov int64
			for _, b := range p.Uncovered() {
				uncov += int64(b.Volume()) * elemSize
			}
			if p.RetainedBytes()+p.ReceivedBytes()+uncov != p.NeedBytes() {
				t.Fatalf("seed %d rank %d: retained %d + received %d + uncovered %d != need %d",
					seed, r, p.RetainedBytes(), p.ReceivedBytes(), uncov, p.NeedBytes())
			}
		}
	}
}

// TestCompileDeltaPlantedBug proves the differential harness detects a
// delta-compilation bug: shifting one receive region off by one cell
// must surface as a fill-invariant violation on the perturbed rank.
func TestCompileDeltaPlantedBug(t *testing.T) {
	const elemSize = 4
	// Four slabs shifting right by 8: every rank receives something.
	oldNeeds := []grid.Box{
		grid.Box2(0, 0, 16, 16), grid.Box2(16, 0, 16, 16),
		grid.Box2(32, 0, 16, 16), grid.Box2(48, 0, 16, 16),
	}
	newNeeds := []grid.Box{
		grid.Box2(8, 0, 16, 16), grid.Box2(24, 0, 16, 16),
		grid.Box2(40, 0, 16, 16), grid.Box2(48, 0, 16, 16),
	}
	plans, err := CompileDelta(elemSize, oldNeeds, newNeeds)
	if err != nil {
		t.Fatal(err)
	}
	got := runDeltaExchange(t, plans, oldNeeds, newNeeds, elemSize, 0)
	covered := func(x, y, z int) bool { return x < 64 && y < 16 }
	if err := checkBox(got[0], newNeeds[0], elemSize, covered, deltaSentinel); err == nil {
		t.Fatal("planted off-by-one in the delta plan went undetected")
	}
	// The unperturbed ranks must still verify.
	for r := 1; r < 4; r++ {
		if err := checkBox(got[r], newNeeds[r], elemSize, covered, deltaSentinel); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestDeltaCompilerCollective runs the cached collective front end: the
// first compile allgathers and compiles, a repeat of the same (old, new)
// pair replays from the cache, and the replayed plan exchanges
// identically.
func TestDeltaCompilerCollective(t *testing.T) {
	const elemSize = 4
	rng := rand.New(rand.NewSource(99))
	n := 6
	oldNeeds, newNeeds := genResizeNeeds(rng, n)
	offline, err := CompileDelta(elemSize, oldNeeds, newNeeds)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		dc, err := NewDeltaCompiler(elemSize, 4)
		if err != nil {
			return err
		}
		for round := 0; round < 3; round++ {
			p, err := dc.Compile(c, oldNeeds[r], newNeeds[r])
			if err != nil {
				return fmt.Errorf("rank %d round %d: %w", r, round, err)
			}
			if p.MovedBytes() != offline[r].MovedBytes() || p.RetainedBytes() != offline[r].RetainedBytes() {
				return fmt.Errorf("rank %d: collective plan accounting diverges from offline compile", r)
			}
			if p.Fingerprint() == 0 {
				return fmt.Errorf("rank %d: cached plan has no fingerprint", r)
			}
			var oldBuf, newBuf []byte
			if !oldNeeds[r].Empty() {
				oldBuf = fillBox(oldNeeds[r], elemSize)
			}
			if !newNeeds[r].Empty() {
				newBuf = bytes.Repeat([]byte{deltaSentinel}, newNeeds[r].Volume()*elemSize)
			}
			if err := p.Exchange(c, oldBuf, newBuf); err != nil {
				return err
			}
		}
		hits, misses := dc.CacheStats()
		if hits != 2 || misses != 1 {
			return fmt.Errorf("rank %d: cache stats hits=%d misses=%d, want 2/1", r, hits, misses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompileDeltaValidation pins the compile-time error surface.
func TestCompileDeltaValidation(t *testing.T) {
	if _, err := CompileDelta(0, nil, nil); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := CompileDelta(4, make([]grid.Box, 2), make([]grid.Box, 3)); err == nil {
		t.Error("mismatched geometry lengths accepted")
	}
	if _, err := NewDeltaCompiler(0, 4); err == nil {
		t.Error("zero element size accepted by NewDeltaCompiler")
	}
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		dc, err := NewDeltaCompiler(4, 0)
		if err != nil {
			return err
		}
		if _, err := dc.Compile(c, grid.Box{}, grid.Box1(0, 4)); err == nil {
			return fmt.Errorf("zero-value box accepted (dimensionality is required)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaExchangeBufferValidation pins the execution error surface.
func TestDeltaExchangeBufferValidation(t *testing.T) {
	oldNeeds := []grid.Box{grid.Box1(0, 8), grid.Box1(8, 8)}
	newNeeds := []grid.Box{grid.Box1(0, 12), grid.Box1(12, 4)}
	plans, err := CompileDelta(1, oldNeeds, newNeeds)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Launch(2, func(c *mpi.Comm) error {
		p := plans[c.Rank()]
		short := make([]byte, 1)
		if err := p.Exchange(c, short, nil); err == nil {
			return fmt.Errorf("bad old buffer size accepted")
		}
		oldBuf := make([]byte, 8)
		if err := p.Exchange(c, oldBuf, short); err == nil {
			return fmt.Errorf("bad new buffer size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
