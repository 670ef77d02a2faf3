package geom

// MaskGrid is an OccupancyGrid whose cells carry a world mask instead of a
// single occupied bit. The shared-expansion counterfactual engine (package
// reach) uses one MaskGrid to measure every reach-tube volume in a single
// pass: bit w of a cell's mask records that the cell was traversed by a
// state surviving in counterfactual world w, so the per-world cell count —
// and with it the paper's |T|, |T^{/i}| — falls out of one grid.
//
// A mask is `words` consecutive uint64s (bit w lives in word w/64), passed
// as caller-owned slices so the hot loop stays allocation-free.
//
// Cell addressing is identical to OccupancyGrid (exact packed cell indices,
// open addressing, generation-stamped O(1) Reset), so a MaskGrid restricted
// to one bit marks exactly the cells an OccupancyGrid would.
//
// The zero value is not usable; construct with NewMaskGrid.
type MaskGrid struct {
	cellSize float64
	words    int
	cells    []uint64 // packed (ix, iy) cell indices
	masks    []uint64 // accumulated per-cell world masks, stride `words`
	gen      []uint32
	cur      uint32
	count    int
}

// NewMaskGrid creates a masked grid with the given cell edge length in
// metres whose cells carry words×64-bit masks. cellSize must be positive;
// words must be at least 1.
func NewMaskGrid(cellSize float64, words int) *MaskGrid {
	if cellSize <= 0 {
		cellSize = 1
	}
	if words < 1 {
		words = 1
	}
	return &MaskGrid{cellSize: cellSize, words: words, cur: 1}
}

// CellSize returns the grid resolution in metres.
func (g *MaskGrid) CellSize() float64 { return g.cellSize }

// Words returns the number of 64-bit words in each cell's mask.
func (g *MaskGrid) Words() int { return g.words }

// Mark ORs mask (len Words()) into the mask of the cell containing p and
// writes the bits that were not yet set there into newBits (len Words()),
// word-aligned with mask: the worlds for which this cell is newly occupied.
// Callers tally per-world cell counts from newBits, so a cell is counted
// exactly once per world.
func (g *MaskGrid) Mark(p Vec2, mask, newBits []uint64) {
	if 2*(g.count+1) > len(g.cells) {
		g.grow()
	}
	k := g.key(p)
	slot := uint64(len(g.cells) - 1)
	i := hashCell(k) & slot
	for g.gen[i] == g.cur && g.cells[i] != k {
		i = (i + 1) & slot
	}
	fresh := g.gen[i] != g.cur
	if fresh {
		g.cells[i], g.gen[i] = k, g.cur
		g.count++
	}
	cell := g.masks[int(i)*g.words : int(i)*g.words+g.words]
	for w, m := range mask {
		var old uint64
		if !fresh {
			old = cell[w]
		}
		newBits[w] = m &^ old
		cell[w] = old | m
	}
}

// At copies the accumulated mask of the cell containing p into dst
// (len Words()), zero-filled if the cell was never marked.
func (g *MaskGrid) At(p Vec2, dst []uint64) {
	clear(dst)
	if len(g.cells) == 0 {
		return
	}
	k := g.key(p)
	slot := uint64(len(g.cells) - 1)
	for i := hashCell(k) & slot; ; i = (i + 1) & slot {
		if g.gen[i] != g.cur {
			return
		}
		if g.cells[i] == k {
			copy(dst, g.masks[int(i)*g.words:int(i)*g.words+g.words])
			return
		}
	}
}

// Cells returns the number of cells with at least one bit set.
func (g *MaskGrid) Cells() int { return g.count }

// Reset clears every cell while retaining allocated capacity.
func (g *MaskGrid) Reset() {
	g.cur++
	g.count = 0
	if g.cur == 0 { // stamp wrapped: old entries would look live again
		clear(g.gen)
		g.cur = 1
	}
}

func (g *MaskGrid) grow() {
	capOld := len(g.cells)
	capNew := 1024
	if capOld > 0 {
		capNew = capOld * 2
	}
	oldCells, oldMasks, oldGen := g.cells, g.masks, g.gen
	g.cells = make([]uint64, capNew)
	g.masks = make([]uint64, capNew*g.words)
	g.gen = make([]uint32, capNew)
	slot := uint64(capNew - 1)
	for i, gen := range oldGen {
		if gen != g.cur {
			continue
		}
		k := oldCells[i]
		for j := hashCell(k) & slot; ; j = (j + 1) & slot {
			if g.gen[j] != g.cur {
				g.cells[j] = k
				copy(g.masks[int(j)*g.words:int(j)*g.words+g.words], oldMasks[i*g.words:i*g.words+g.words])
				g.gen[j] = g.cur
				break
			}
		}
	}
}

// key packs the cell indices of p into one 64-bit value, exactly as
// OccupancyGrid does, so both grids agree on cell membership.
func (g *MaskGrid) key(p Vec2) uint64 {
	ix := uint32(int32(floorDiv(p.X, g.cellSize)))
	iy := uint32(int32(floorDiv(p.Y, g.cellSize)))
	return uint64(ix) | uint64(iy)<<32
}
