package sched

import "fmt"

// BitMatrix is a dense bitset over (row, column) pairs, used as the
// per-unit × per-cycle resource-occupancy mirror of a schedule: row u,
// column c is set while concrete unit u is busy in cycle c. Check
// interrogates occupancy once per operation and hop, where a bit probe
// beats a map lookup and the whole table resets in O(words).
//
// The zero value is an empty matrix; Reset sizes (and re-sizes) it while
// reusing the underlying storage, so a recycled matrix allocates only
// when it grows.
type BitMatrix struct {
	rows, cols int
	stride     int // words per row
	bits       []uint64
}

// Reset clears the matrix and sizes it to rows × cols, growing the
// backing storage only when the new shape needs more words.
func (m *BitMatrix) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sched: BitMatrix.Reset(%d, %d): negative shape", rows, cols))
	}
	m.rows, m.cols = rows, cols
	m.stride = (cols + 63) / 64
	n := rows * m.stride
	if cap(m.bits) < n {
		m.bits = make([]uint64, n)
		return
	}
	m.bits = m.bits[:n]
	for i := range m.bits {
		m.bits[i] = 0
	}
}

// Rows returns the row count of the current shape.
func (m *BitMatrix) Rows() int { return m.rows }

// Cols returns the column count of the current shape.
func (m *BitMatrix) Cols() int { return m.cols }

// Set marks (row, col) busy.
func (m *BitMatrix) Set(row, col int) {
	m.check(row, col)
	m.bits[row*m.stride+col>>6] |= 1 << uint(col&63)
}

// Get reports whether (row, col) is busy.
func (m *BitMatrix) Get(row, col int) bool {
	m.check(row, col)
	return m.bits[row*m.stride+col>>6]&(1<<uint(col&63)) != 0
}

// SetRange marks columns [from, to) of row busy and reports whether any
// of them was already set — the double-booking probe: occupying a unit
// for an operation's dii cycles collides exactly when SetRange returns
// true.
func (m *BitMatrix) SetRange(row, from, to int) bool {
	if from >= to {
		return false
	}
	m.check(row, from)
	m.check(row, to-1)
	clash := false
	base := row * m.stride
	for w := from >> 6; w <= (to-1)>>6; w++ {
		lo, hi := w<<6, w<<6+63
		if lo < from {
			lo = from
		}
		if hi > to-1 {
			hi = to - 1
		}
		var mask uint64 = ((2 << uint(hi&63)) - 1) &^ ((1 << uint(lo&63)) - 1)
		if m.bits[base+w]&mask != 0 {
			clash = true
		}
		m.bits[base+w] |= mask
	}
	return clash
}

func (m *BitMatrix) check(row, col int) {
	if row < 0 || row >= m.rows || col < 0 || col >= m.cols {
		panic(fmt.Sprintf("sched: BitMatrix index (%d, %d) out of %dx%d", row, col, m.rows, m.cols))
	}
}
