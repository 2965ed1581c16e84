package textview

import (
	"atk/internal/graphics"
	"atk/internal/text"
)

// FullUpdate implements core.View: paints the visible lines, embedded
// children, selection highlight and caret. Painting only ever needs the
// viewport laid out, so this is the lazy path — cost proportional to the
// window, not the document.
func (v *View) FullUpdate(d *graphics.Drawable) {
	v.ensureViewport()
	w, h := v.Bounds().Dx(), v.Bounds().Dy()
	d.ClearRect(graphics.XYWH(0, 0, w, h))
	for k := range v.rects {
		delete(v.rects, k)
	}
	td := v.Text()
	if td == nil {
		return
	}
	selStart, selEnd := v.Selection()
	y := 2
	for i := v.topLine; i < len(v.lines) && y < h; i++ {
		ln := v.lines[i]
		base := y + ln.ascent
		for _, seg := range ln.segs {
			if seg.child != nil {
				r := graphics.XYWH(seg.x, y, seg.w, ln.h)
				v.rects[seg.child] = r
				if cv := v.childView(seg.child); cv != nil {
					cv.SetBounds(r)
					cv.FullUpdate(d.Sub(r))
					cv.DrawOverlay(d.Sub(r))
				} else {
					// Placeholder for a component with no loadable view.
					d.SetValue(graphics.Gray)
					d.DrawRect(r)
					d.DrawLine(r.Min, r.Max.Sub(graphics.Pt(1, 1)))
				}
				d.SetValue(graphics.Black)
				continue
			}
			if seg.font == nil {
				continue
			}
			d.SetFont(seg.font)
			d.SetValue(graphics.Black)
			d.DrawString(graphics.Pt(seg.x, base), td.Slice(seg.start, seg.end))
		}
		// Selection highlight for the overlap with this line.
		if selStart < selEnd && selEnd > ln.start && selStart < ln.nlEnd {
			x0 := v.posToX(ln, max(selStart, ln.start))
			x1 := v.posToX(ln, min(selEnd, ln.end))
			if selEnd > ln.end { // selection crosses the newline
				x1 = max(x1, x0+4)
			}
			if x1 > x0 {
				d.InvertArea(graphics.XYWH(x0, y, x1-x0, ln.h))
			}
		}
		y += ln.h
	}
	// Caret.
	if selStart == selEnd {
		if x, cy, ch, ok := v.caretGeometry(); ok {
			d.SetValue(graphics.Black)
			d.DrawLine(graphics.Pt(x, cy), graphics.Pt(x, cy+ch-1))
		}
	}
}

// posToX returns the x coordinate of pos within line ln.
func (v *View) posToX(ln line, pos int) int {
	td := v.Text()
	for _, seg := range ln.segs {
		if pos < seg.start {
			continue
		}
		if seg.child != nil {
			if pos == seg.start {
				return seg.x
			}
			if pos == seg.end {
				return seg.x + seg.w
			}
			continue
		}
		if pos <= seg.end {
			return seg.x + seg.font.TextWidth(td.Slice(seg.start, pos))
		}
	}
	// Past the last segment.
	if n := len(ln.segs); n > 0 {
		last := ln.segs[n-1]
		if last.child != nil {
			return last.x + last.w
		}
		return last.x + last.font.TextWidth(td.Slice(last.start, last.end))
	}
	return ln.indent
}

// caretGeometry returns the caret's x, top y, height — ok=false when the
// caret is scrolled out of view.
func (v *View) caretGeometry() (x, y, h int, ok bool) {
	li := v.lineOf(v.dot)
	r := v.lineRect(li)
	if r.Empty() {
		return 0, 0, 0, false
	}
	ln := v.lines[li]
	return v.posToX(ln, v.dot), r.Min.Y, ln.h, true
}

// posAt maps a local point to the nearest buffer position.
func (v *View) posAt(p graphics.Point) int {
	v.ensureViewport()
	if len(v.lines) == 0 {
		return 0
	}
	y := 2
	li := -1
	for i := v.topLine; i < len(v.lines); i++ {
		if p.Y < y+v.lines[i].h {
			li = i
			break
		}
		y += v.lines[i].h
	}
	if li < 0 {
		// Below everything laid out: clicks past the end land on the last
		// line of the document, which needs the full layout.
		if !v.complete {
			v.ensureLayout()
		}
		li = len(v.lines) - 1
	}
	ln := v.lines[li]
	td := v.Text()
	// Walk the segments accumulating advance until we pass p.X.
	for _, seg := range ln.segs {
		if seg.child != nil {
			if p.X < seg.x+seg.w/2 {
				return seg.start
			}
			if p.X < seg.x+seg.w {
				return seg.end
			}
			continue
		}
		x := seg.x
		c := td.Cursor(seg.start)
		for pos := seg.start; pos < seg.end; pos++ {
			r, ok := c.Next()
			if !ok {
				return pos
			}
			rw := seg.font.RuneWidth(r)
			if p.X < x+rw/2 {
				return pos
			}
			x += rw
		}
	}
	return ln.end
}

// ChildRect returns the on-screen rectangle of an embedded component, if
// currently visible (test and tooling introspection).
func (v *View) ChildRect(e *text.Embedded) (graphics.Rect, bool) {
	r, ok := v.rects[e]
	return r, ok
}
