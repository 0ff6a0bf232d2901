package sched

import (
	"math/rand"
	"testing"
)

func TestBitMatrixSetGet(t *testing.T) {
	var m BitMatrix
	m.Reset(3, 130) // spans three words per row
	cells := [][2]int{{0, 0}, {0, 63}, {0, 64}, {1, 127}, {2, 129}, {1, 1}}
	for _, c := range cells {
		if m.Get(c[0], c[1]) {
			t.Fatalf("fresh matrix has (%d,%d) set", c[0], c[1])
		}
		m.Set(c[0], c[1])
	}
	for _, c := range cells {
		if !m.Get(c[0], c[1]) {
			t.Fatalf("(%d,%d) lost after Set", c[0], c[1])
		}
	}
	if m.Get(2, 128) || m.Get(0, 1) {
		t.Fatal("Set leaked into neighboring cells")
	}
}

func TestBitMatrixSetRangeClash(t *testing.T) {
	var m BitMatrix
	m.Reset(2, 200)
	if m.SetRange(0, 60, 70) {
		t.Fatal("clash reported on empty row")
	}
	if m.SetRange(1, 60, 70) {
		t.Fatal("clash leaked across rows")
	}
	if !m.SetRange(0, 69, 75) {
		t.Fatal("overlap at column 69 not detected")
	}
	if m.SetRange(0, 75, 80) {
		t.Fatal("adjacent (touching, non-overlapping) range reported as clash")
	}
	if m.SetRange(0, 55, 55) {
		t.Fatal("empty range reported as clash")
	}
}

// TestBitMatrixResetReuses checks that Reset clears prior contents and
// only grows storage, never keeps stale bits — the property a recycled
// matrix depends on.
func TestBitMatrixResetReuses(t *testing.T) {
	var m BitMatrix
	m.Reset(4, 100)
	for r := 0; r < 4; r++ {
		m.SetRange(r, 0, 100)
	}
	m.Reset(2, 50)
	if m.Rows() != 2 || m.Cols() != 50 {
		t.Fatalf("shape after Reset = %dx%d, want 2x50", m.Rows(), m.Cols())
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 50; c++ {
			if m.Get(r, c) {
				t.Fatalf("stale bit (%d,%d) survived Reset", r, c)
			}
		}
	}
}

// TestBitMatrixDifferentialVsMap cross-checks SetRange against a naive
// map-based occupancy model over random interval insertions.
func TestBitMatrixDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m BitMatrix
	m.Reset(5, 300)
	occ := make(map[[2]int]bool)
	for i := 0; i < 500; i++ {
		row := rng.Intn(5)
		from := rng.Intn(290)
		to := from + 1 + rng.Intn(10)
		wantClash := false
		for c := from; c < to; c++ {
			if occ[[2]int{row, c}] {
				wantClash = true
			}
			occ[[2]int{row, c}] = true
		}
		if got := m.SetRange(row, from, to); got != wantClash {
			t.Fatalf("iteration %d: SetRange(%d, %d, %d) = %v, map says %v",
				i, row, from, to, got, wantClash)
		}
	}
	for r := 0; r < 5; r++ {
		for c := 0; c < 300; c++ {
			if m.Get(r, c) != occ[[2]int{r, c}] {
				t.Fatalf("cell (%d,%d) diverges from map model", r, c)
			}
		}
	}
}
