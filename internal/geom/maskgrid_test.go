package geom

import (
	"math/rand"
	"testing"
)

// markBits marks p with a one-word mask and returns the newly set bits.
func markBits(g *MaskGrid, p Vec2, mask uint64) uint64 {
	var newBits [1]uint64
	g.Mark(p, []uint64{mask}, newBits[:])
	return newBits[0]
}

// bitsAt returns the accumulated one-word mask of the cell containing p.
func bitsAt(g *MaskGrid, p Vec2) uint64 {
	var acc [1]uint64
	g.At(p, acc[:])
	return acc[0]
}

func TestMaskGridMarkBitsReturnsNewBits(t *testing.T) {
	g := NewMaskGrid(1, 1)
	p := V(0.5, 0.5)
	if got := markBits(g, p, 0b0101); got != 0b0101 {
		t.Fatalf("first mark returned %b, want 0101", got)
	}
	if got := markBits(g, p, 0b0011); got != 0b0010 {
		t.Fatalf("overlapping mark returned %b, want 0010", got)
	}
	if got := markBits(g, p, 0b0111); got != 0 {
		t.Fatalf("fully covered mark returned %b, want 0", got)
	}
	if got := bitsAt(g, p); got != 0b0111 {
		t.Fatalf("accumulated mask %b, want 0111", got)
	}
	if g.Cells() != 1 {
		t.Fatalf("cells %d, want 1", g.Cells())
	}
}

func TestMaskGridCellAddressingMatchesOccupancyGrid(t *testing.T) {
	// A MaskGrid restricted to one bit must mark exactly the cells an
	// OccupancyGrid marks: same floor division, same packed key, so the
	// shared-expansion volumes equal the legacy Area counts cell-for-cell.
	rng := rand.New(rand.NewSource(8))
	mg := NewMaskGrid(0.75, 1)
	og := NewOccupancyGrid(0.75)
	for i := 0; i < 5000; i++ {
		p := V((rng.Float64()-0.5)*200, (rng.Float64()-0.5)*200)
		newBit := markBits(mg, p, 1) != 0
		fresh := og.Mark(p)
		if newBit != fresh {
			t.Fatalf("point %v: MaskGrid new=%v OccupancyGrid new=%v", p, newBit, fresh)
		}
	}
	if mg.Cells() != og.Count() {
		t.Fatalf("cell counts diverge: %d vs %d", mg.Cells(), og.Count())
	}
}

func TestMaskGridResetReuse(t *testing.T) {
	g := NewMaskGrid(1, 1)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			markBits(g, V(float64(i), float64(round)), uint64(1)<<uint(i%64))
		}
		if g.Cells() != 100 {
			t.Fatalf("round %d: cells %d, want 100", round, g.Cells())
		}
		g.Reset()
		if g.Cells() != 0 {
			t.Fatalf("round %d: cells after reset %d", round, g.Cells())
		}
		if bitsAt(g, V(0, float64(round))) != 0 {
			t.Fatalf("round %d: stale bits survive reset", round)
		}
	}
}

func TestMaskGridGrowthPreservesMasks(t *testing.T) {
	g := NewMaskGrid(1, 1)
	const n = 3000 // well past the initial table size, forcing rehashes
	for i := 0; i < n; i++ {
		markBits(g, V(float64(i), 0), uint64(i)|1)
	}
	if g.Cells() != n {
		t.Fatalf("cells %d, want %d", g.Cells(), n)
	}
	for i := 0; i < n; i++ {
		if got, want := bitsAt(g, V(float64(i), 0)), uint64(i)|1; got != want {
			t.Fatalf("cell %d: mask %b, want %b after growth", i, got, want)
		}
	}
}

func TestMaskGridMarkWordsReturnsNewBits(t *testing.T) {
	g := NewMaskGrid(1, 2)
	if g.Words() != 2 {
		t.Fatalf("Words() = %d, want 2", g.Words())
	}
	p := V(0.5, 0.5)
	newBits := make([]uint64, 2)
	g.Mark(p, []uint64{0b0101, 0b1000}, newBits)
	if newBits[0] != 0b0101 || newBits[1] != 0b1000 {
		t.Fatalf("first mark returned %b/%b, want 0101/1000", newBits[0], newBits[1])
	}
	g.Mark(p, []uint64{0b0011, 0b1100}, newBits)
	if newBits[0] != 0b0010 || newBits[1] != 0b0100 {
		t.Fatalf("overlapping mark returned %b/%b, want 0010/0100", newBits[0], newBits[1])
	}
	g.Mark(p, []uint64{0b0111, 0b1100}, newBits)
	if newBits[0] != 0 || newBits[1] != 0 {
		t.Fatalf("fully covered mark returned %b/%b, want 0/0", newBits[0], newBits[1])
	}
	acc := make([]uint64, 2)
	g.At(p, acc)
	if acc[0] != 0b0111 || acc[1] != 0b1100 {
		t.Fatalf("accumulated mask %b/%b, want 0111/1100", acc[0], acc[1])
	}
	if g.Cells() != 1 {
		t.Fatalf("cells %d, want 1", g.Cells())
	}
	g.At(V(50, 50), acc)
	if acc[0] != 0 || acc[1] != 0 {
		t.Fatalf("unmarked cell reads %b/%b, want zeros", acc[0], acc[1])
	}
}

// A multi-word grid must behave exactly like one single-word grid per word:
// the per-word newly-set bits and accumulated masks of random markings have
// to agree word for word, including across table growth.
func TestMaskGridWordsMatchPerWordGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const words = 3
	wide := NewMaskGrid(0.75, words)
	narrow := make([]*MaskGrid, words)
	for w := range narrow {
		narrow[w] = NewMaskGrid(0.75, 1)
	}
	mask := make([]uint64, words)
	newBits := make([]uint64, words)
	for i := 0; i < 4000; i++ {
		p := V((rng.Float64()-0.5)*100, (rng.Float64()-0.5)*100)
		for w := range mask {
			mask[w] = rng.Uint64()
		}
		wide.Mark(p, mask, newBits)
		for w := range mask {
			if got := markBits(narrow[w], p, mask[w]); got != newBits[w] {
				t.Fatalf("point %v word %d: new bits %b, per-word grid %b", p, w, newBits[w], got)
			}
		}
	}
	if wide.Cells() != narrow[0].Cells() {
		t.Fatalf("cell counts diverge: %d vs %d", wide.Cells(), narrow[0].Cells())
	}
	acc := make([]uint64, words)
	for i := 0; i < 1000; i++ {
		p := V((rng.Float64()-0.5)*100, (rng.Float64()-0.5)*100)
		wide.At(p, acc)
		for w := range acc {
			if got := bitsAt(narrow[w], p); got != acc[w] {
				t.Fatalf("point %v word %d: mask %b, per-word grid %b", p, w, acc[w], got)
			}
		}
	}
}

func TestMaskGridWordsResetReuse(t *testing.T) {
	g := NewMaskGrid(1, 2)
	mask := []uint64{^uint64(0), 1}
	newBits := make([]uint64, 2)
	acc := make([]uint64, 2)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			g.Mark(V(float64(i), float64(round)), mask, newBits)
		}
		if g.Cells() != 100 {
			t.Fatalf("round %d: cells %d, want 100", round, g.Cells())
		}
		g.Reset()
		if g.Cells() != 0 {
			t.Fatalf("round %d: cells after reset %d", round, g.Cells())
		}
		g.At(V(0, float64(round)), acc)
		if acc[0] != 0 || acc[1] != 0 {
			t.Fatalf("round %d: stale bits survive reset", round)
		}
	}
}
