package text

import "sort"

// Indexed-buffer layer: the piece-table index, the rune cursor, and the
// incrementally-maintained newline index. Together they turn the per-rune
// O(pieces) lookups of the original piece table into O(log k) point
// lookups and amortized O(1) iteration, and line queries into O(log L)
// binary searches.
//
// Concurrency: like every toolkit data object, Data is not safe for
// concurrent mutation. Concurrent *readers* (each with its own Cursor)
// are safe only while no goroutine mutates the buffer AND the lazy piece
// index has been primed by a single-threaded read first — the index is
// rebuilt lazily on first use after an edit, and that rebuild is a write.

// --- piece index ---

// pieceIndex returns d.cum, the rune position at which each piece starts
// (cum[i] is the buffer position of pieces[i][0]). It is rebuilt lazily
// after any piece-table mutation, detected through the generation
// counter; rebuilding is O(k), the same order as the splice that
// invalidated it, so lookups stay O(log k) amortized.
func (d *Data) pieceIndex() []int {
	if !d.cumOK || d.cumGen != d.gen {
		cum := d.cum[:0]
		pos := 0
		for _, p := range d.pieces {
			cum = append(cum, pos)
			pos += p.n
		}
		d.cum = cum
		d.cumGen = d.gen
		d.cumOK = true
	}
	return d.cum
}

// pieceAt locates the piece containing rune position pos (0 <= pos <
// Len) in O(log k), returning the piece index and the rune offset
// within it.
func (d *Data) pieceAt(pos int) (pi, po int) {
	cum := d.pieceIndex()
	pi = sort.Search(len(cum), func(i int) bool { return cum[i] > pos }) - 1
	return pi, pos - cum[pi]
}

// bump invalidates every derived index after a piece-table mutation.
// Outstanding cursors detect the new generation and re-seek themselves.
func (d *Data) bump() { d.gen++ }

// --- cursor ---

// Cursor is an iteration position in the buffer. Next and Prev run in
// amortized O(1): the cursor remembers which piece it is in, so
// sequential iteration never re-walks the piece table. Cursors survive
// edits: after any Insert/Delete/undo/redo/Compact the cursor re-seeks
// its numeric position (clamped to the new length) on the next call, in
// O(log k). The numeric position is NOT shifted across edits — a cursor
// at position 10 stays at position 10 whatever was inserted before it;
// callers tracking a semantic location must Seek explicitly.
//
// Cursor is a value type: copying one yields an independent iterator,
// and a stack-allocated cursor costs no heap allocation.
type Cursor struct {
	d   *Data
	gen uint64
	pos int // buffer position of the next rune Next returns
	pi  int // piece containing pos; len(pieces) when pos == Len
	po  int // rune offset within piece pi
}

// Cursor returns a cursor positioned at pos (clamped to [0, Len]).
// Next returns the rune at pos; Prev returns the rune before it.
func (d *Data) Cursor(pos int) Cursor {
	c := Cursor{d: d}
	c.Seek(pos)
	return c
}

// Seek repositions the cursor at pos (clamped to [0, Len]) in O(log k).
func (c *Cursor) Seek(pos int) {
	d := c.d
	if pos < 0 {
		pos = 0
	}
	if pos > d.length {
		pos = d.length
	}
	c.gen = d.gen
	c.pos = pos
	if pos == d.length {
		c.pi, c.po = len(d.pieces), 0
		return
	}
	c.pi, c.po = d.pieceAt(pos)
}

// Pos returns the cursor's buffer position.
func (c *Cursor) Pos() int { return c.pos }

// revalidate re-seeks after a buffer mutation invalidated the piece
// coordinates. The numeric position is kept (clamped).
func (c *Cursor) revalidate() {
	if c.gen != c.d.gen {
		c.Seek(c.pos)
	}
}

// Next returns the rune at the cursor and advances past it; ok is false
// at the end of the buffer.
func (c *Cursor) Next() (r rune, ok bool) {
	c.revalidate()
	d := c.d
	if c.pos >= d.length {
		return 0, false
	}
	p := d.pieces[c.pi]
	r = d.src(p.src)[p.off+c.po]
	c.pos++
	c.po++
	for c.pi < len(d.pieces) && c.po >= d.pieces[c.pi].n {
		c.pi++
		c.po = 0
	}
	return r, true
}

// Prev moves the cursor back one rune and returns the rune it moved
// over; ok is false at the start of the buffer.
func (c *Cursor) Prev() (r rune, ok bool) {
	c.revalidate()
	d := c.d
	if c.pos <= 0 {
		return 0, false
	}
	c.pos--
	for c.po == 0 {
		c.pi--
		c.po = d.pieces[c.pi].n
	}
	c.po--
	p := d.pieces[c.pi]
	return d.src(p.src)[p.off+c.po], true
}

// --- newline index ---

// The newline index d.nl holds the buffer position of every '\n', sorted.
// It is maintained incrementally by every insert and delete (a binary
// search plus a shift of the tail), so LineStart/LineEnd/LineCount are
// O(log L) with no rune scanning.

// buildNewlineIndex rebuilds d.nl from scratch — the initialization path
// (NewString, ReadPayload, Extract).
func (d *Data) buildNewlineIndex() {
	d.nl = d.nl[:0]
	pos := 0
	for _, p := range d.pieces {
		seg := d.src(p.src)[p.off : p.off+p.n]
		for i, r := range seg {
			if r == '\n' {
				d.nl = append(d.nl, pos+i)
			}
		}
		pos += p.n
	}
}

// noteInsert updates the newline index for rs inserted at pos.
func (d *Data) noteInsert(pos int, rs []rune) {
	idx := sort.SearchInts(d.nl, pos)
	n := len(rs)
	for i := idx; i < len(d.nl); i++ {
		d.nl[i] += n
	}
	add := 0
	for _, r := range rs {
		if r == '\n' {
			add++
		}
	}
	if add == 0 {
		return
	}
	d.nl = append(d.nl, make([]int, add)...)
	copy(d.nl[idx+add:], d.nl[idx:len(d.nl)-add])
	j := idx
	for i, r := range rs {
		if r == '\n' {
			d.nl[j] = pos + i
			j++
		}
	}
}

// noteDelete updates the newline index for the deletion of [pos, pos+n).
func (d *Data) noteDelete(pos, n int) {
	lo := sort.SearchInts(d.nl, pos)
	hi := sort.SearchInts(d.nl, pos+n)
	k := hi - lo
	for i := hi; i < len(d.nl); i++ {
		d.nl[i-k] = d.nl[i] - n
	}
	d.nl = d.nl[:len(d.nl)-k]
}

// LineCount returns the number of hard (newline-delimited) lines, in
// O(1). An empty buffer has one line; a trailing newline opens another.
func (d *Data) LineCount() int { return len(d.nl) + 1 }

// Runes returns a copy of the runes in [start, end) (clamped), walking
// the pieces directly — one allocation, no string round trip.
func (d *Data) Runes(start, end int) []rune {
	if start < 0 {
		start = 0
	}
	if end > d.length {
		end = d.length
	}
	if start >= end {
		return nil
	}
	out := make([]rune, 0, end-start)
	pi, po := d.pieceAt(start)
	pos := start
	for pi < len(d.pieces) && pos < end {
		p := d.pieces[pi]
		take := p.n - po
		if take > end-pos {
			take = end - pos
		}
		out = append(out, d.src(p.src)[p.off+po:p.off+po+take]...)
		pos += take
		pi++
		po = 0
	}
	return out
}
