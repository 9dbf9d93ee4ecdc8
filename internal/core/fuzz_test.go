package core

import (
	"testing"

	"ddr/internal/grid"
)

// The geometry decoders parse bytes allgathered from peers on every
// SetupDataMapping (decodeGeometry) and MultiDescriptor setup
// (decodeBoxLists), so a malformed or hostile contribution must come back
// as an error, never a panic. The round-trip property pins the decoders
// to their encoders: whatever a decoder accepts, re-encoding it yields a
// stream that decodes to the same geometry.

func boxesEqual(a, b []grid.Box) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func FuzzDecodeGeometry(f *testing.F) {
	f.Add(encodeGeometry(grid.Box2(0, 0, 8, 8), []grid.Box{grid.Box2(0, 0, 4, 8), grid.Box2(4, 0, 4, 8)}))
	f.Add(encodeGeometry(grid.MustBox([]int{3}, []int{5}), nil))
	f.Add(encodeGeometry(grid.Box2(0, 0, 0, 0), []grid.Box{grid.MustBox([]int{1, 2, 3}, []int{4, 5, 6})}))
	f.Add([]byte{geomVersion})
	f.Add([]byte{geomVersion, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		need, own, err := decodeGeometry(data)
		if err != nil {
			return
		}
		need2, own2, err := decodeGeometry(encodeGeometry(need, own))
		if err != nil {
			t.Fatalf("re-encoded geometry does not decode: %v", err)
		}
		if !need2.Equal(need) || !boxesEqual(own2, own) {
			t.Fatalf("round trip changed the geometry: need %v -> %v, own %v -> %v", need, need2, own, own2)
		}
	})
}

func FuzzDecodeBoxLists(f *testing.F) {
	f.Add(encodeBoxLists([]grid.Box{grid.Box2(0, 0, 4, 4)}, []grid.Box{grid.Box2(0, 0, 1, 4), grid.Box2(3, 0, 1, 4)}))
	f.Add(encodeBoxLists(nil, nil))
	f.Add(encodeBoxLists([]grid.Box{grid.MustBox([]int{0, 0, 0}, []int{2, 2, 2})}, nil))
	f.Add([]byte{geomVersion, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, err := decodeBoxLists(data)
		if err != nil {
			return
		}
		a2, b2, err := decodeBoxLists(encodeBoxLists(a, b))
		if err != nil {
			t.Fatalf("re-encoded box lists do not decode: %v", err)
		}
		if !boxesEqual(a2, a) || !boxesEqual(b2, b) {
			t.Fatalf("round trip changed the box lists: %v,%v -> %v,%v", a, b, a2, b2)
		}
	})
}
