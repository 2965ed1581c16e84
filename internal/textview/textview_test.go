package textview

import (
	"strings"
	"testing"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/graphics"
	"atk/internal/text"
	"atk/internal/wsys"
	"atk/internal/wsys/memwin"
)

func testReg(t *testing.T) *class.Registry {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func newView(t *testing.T, content string, w, h int) (*View, *text.Data) {
	t.Helper()
	reg := testReg(t)
	d := text.NewString(content)
	d.SetRegistry(reg)
	v := New(reg)
	v.SetDataObject(d)
	v.SetBounds(graphics.XYWH(0, 0, w, h))
	return v, d
}

func newIMWithView(t *testing.T, content string, w, h int) (*core.InteractionManager, *memwin.Window, *View, *text.Data) {
	t.Helper()
	ws := memwin.New()
	win, err := ws.NewWindow("tv", w, h)
	if err != nil {
		t.Fatal(err)
	}
	im := core.NewInteractionManager(ws, win)
	v, d := newView(t, content, w, h)
	im.SetChild(v)
	im.FullRedraw()
	return im, win.(*memwin.Window), v, d
}

func TestLayoutSimpleLines(t *testing.T) {
	v, _ := newView(t, "one\ntwo\nthree", 300, 100)
	if v.Lines() != 3 {
		t.Fatalf("lines = %d", v.Lines())
	}
}

func TestLayoutTrailingNewline(t *testing.T) {
	v, _ := newView(t, "one\n", 300, 100)
	if v.Lines() != 2 { // content line + empty final line
		t.Fatalf("lines = %d", v.Lines())
	}
	v2, _ := newView(t, "", 300, 100)
	if v2.Lines() != 1 {
		t.Fatalf("empty doc lines = %d", v2.Lines())
	}
}

func TestLayoutWraps(t *testing.T) {
	long := strings.Repeat("word ", 40)
	v, _ := newView(t, long, 120, 400)
	if v.Lines() < 5 {
		t.Fatalf("long text did not wrap: %d lines", v.Lines())
	}
	// Every line must fit the width.
	for _, ln := range v.lines {
		x := v.posToX(ln, ln.end)
		if x > 120 {
			t.Fatalf("line overflows: x=%d", x)
		}
	}
}

func TestLayoutWrapMidWordWhenNoSpaces(t *testing.T) {
	v, _ := newView(t, strings.Repeat("x", 200), 100, 400)
	if v.Lines() < 2 {
		t.Fatalf("unbroken text did not wrap: %d lines", v.Lines())
	}
}

func TestLayoutRewrapsOnResize(t *testing.T) {
	v, _ := newView(t, strings.Repeat("word ", 40), 120, 400)
	n1 := v.Lines()
	v.SetBounds(graphics.XYWH(0, 0, 400, 400))
	n2 := v.Lines()
	if n2 >= n1 {
		t.Fatalf("wider layout has %d lines, narrower had %d", n2, n1)
	}
}

func TestStyledLayoutUsesFonts(t *testing.T) {
	v, d := newView(t, "small\nbig", 300, 100)
	_ = d.SetStyle(6, 9, "title")
	v.ensureLayout()
	if v.lines[1].h <= v.lines[0].h {
		t.Fatalf("title line not taller: %d vs %d", v.lines[1].h, v.lines[0].h)
	}
}

func TestTypingInsertsAtCaret(t *testing.T) {
	im, win, v, d := newIMWithView(t, "", 300, 100)
	win.Inject(wsys.Click(5, 5))
	win.Inject(wsys.Release(5, 5))
	for _, r := range "hello" {
		win.Inject(wsys.KeyPress(r))
	}
	im.DrainEvents()
	if d.String() != "hello" {
		t.Fatalf("content = %q", d.String())
	}
	if v.Dot() != 5 {
		t.Fatalf("dot = %d", v.Dot())
	}
	win.Inject(wsys.KeyDownEvent(wsys.KeyReturn))
	win.Inject(wsys.KeyPress('x'))
	im.DrainEvents()
	if d.String() != "hello\nx" {
		t.Fatalf("content = %q", d.String())
	}
}

func TestBackspaceAndDelete(t *testing.T) {
	im, win, v, d := newIMWithView(t, "abc", 300, 100)
	v.SetDot(3)
	win.Inject(wsys.KeyDownEvent(wsys.KeyBackspace))
	im.DrainEvents()
	if d.String() != "ab" || v.Dot() != 2 {
		t.Fatalf("content=%q dot=%d", d.String(), v.Dot())
	}
	v.SetDot(0)
	win.Inject(wsys.KeyDownEvent(wsys.KeyDelete))
	im.DrainEvents()
	if d.String() != "b" {
		t.Fatalf("content=%q", d.String())
	}
}

func TestClickPlacesCaret(t *testing.T) {
	_, win, v, _ := newIMWithView(t, "hello world", 300, 100)
	// Click at x=0: caret at 0. Click far right: caret at end.
	win.Inject(wsys.Click(1, 5))
	win.Inject(wsys.Release(1, 5))
	imDrain(win, v)
	if v.Dot() != 0 {
		t.Fatalf("dot = %d", v.Dot())
	}
	win.Inject(wsys.Click(290, 5))
	win.Inject(wsys.Release(290, 5))
	imDrain(win, v)
	if v.Dot() != 11 {
		t.Fatalf("dot = %d", v.Dot())
	}
}

// imDrain drains the events through the IM that owns the view.
func imDrain(win *memwin.Window, v *View) {
	im := core.Root(v).(*core.InteractionManager)
	im.DrainEvents()
}

func TestDragSelects(t *testing.T) {
	_, win, v, d := newIMWithView(t, "hello world", 300, 100)
	win.Inject(wsys.Click(1, 5))
	win.Inject(wsys.Drag(290, 5))
	win.Inject(wsys.Release(290, 5))
	imDrain(win, v)
	s, e := v.Selection()
	if s != 0 || e != d.Len() {
		t.Fatalf("selection = [%d,%d)", s, e)
	}
}

func TestDoubleClickSelectsWord(t *testing.T) {
	_, win, v, d := newIMWithView(t, "hello world", 300, 100)
	f := graphics.Open(graphics.DefaultFont)
	x := f.TextWidth("hello ") + 2
	win.Inject(wsys.Event{Kind: wsys.MouseEvent, Action: wsys.MouseDown,
		Pos: graphics.Pt(x, 5), Clicks: 2})
	win.Inject(wsys.Release(x, 5))
	imDrain(win, v)
	s, e := v.Selection()
	if d.Slice(s, e) != "world" {
		t.Fatalf("selection = %q", d.Slice(s, e))
	}
}

func TestTypingReplacesSelection(t *testing.T) {
	im, win, v, d := newIMWithView(t, "hello world", 300, 100)
	v.SetSelection(0, 5)
	win.Inject(wsys.KeyPress('H'))
	im.DrainEvents()
	if d.String() != "H world" {
		t.Fatalf("content = %q", d.String())
	}
}

func TestCutCopyPaste(t *testing.T) {
	_, _, v, d := newIMWithView(t, "hello world", 300, 100)
	v.SetSelection(0, 5)
	v.Copy()
	if Clipboard() != "hello" {
		t.Fatalf("clipboard = %q", Clipboard())
	}
	v.SetSelection(6, 11)
	v.Cut()
	if d.String() != "hello " || Clipboard() != "world" {
		t.Fatalf("content=%q clip=%q", d.String(), Clipboard())
	}
	v.SetDot(0)
	v.Paste()
	if d.String() != "worldhello " {
		t.Fatalf("after paste = %q", d.String())
	}
}

func TestControlChords(t *testing.T) {
	im, win, v, d := newIMWithView(t, "abc def\nsecond", 300, 100)
	v.SetDot(4)
	win.Inject(wsys.CtrlKey('a'))
	im.DrainEvents()
	if v.Dot() != 0 {
		t.Fatalf("ctrl-a dot = %d", v.Dot())
	}
	win.Inject(wsys.CtrlKey('e'))
	im.DrainEvents()
	if v.Dot() != 7 {
		t.Fatalf("ctrl-e dot = %d", v.Dot())
	}
	win.Inject(wsys.CtrlKey('b'))
	win.Inject(wsys.CtrlKey('b'))
	win.Inject(wsys.CtrlKey('d'))
	im.DrainEvents()
	if d.String() != "abc df\nsecond" {
		t.Fatalf("after ctrl-d: %q", d.String())
	}
	v.SetDot(0)
	win.Inject(wsys.CtrlKey('k'))
	im.DrainEvents()
	if d.String() != "\nsecond" || Clipboard() != "abc df" {
		t.Fatalf("after ctrl-k: %q clip %q", d.String(), Clipboard())
	}
	win.Inject(wsys.CtrlKey('y'))
	im.DrainEvents()
	if d.String() != "abc df\nsecond" {
		t.Fatalf("after ctrl-y: %q", d.String())
	}
}

func TestArrowNavigation(t *testing.T) {
	im, win, v, _ := newIMWithView(t, "ab\ncd", 300, 100)
	v.SetDot(0)
	win.Inject(wsys.KeyDownEvent(wsys.KeyRight))
	im.DrainEvents()
	if v.Dot() != 1 {
		t.Fatalf("right: %d", v.Dot())
	}
	win.Inject(wsys.KeyDownEvent(wsys.KeyDown))
	im.DrainEvents()
	if v.Dot() < 3 || v.Dot() > 5 {
		t.Fatalf("down: %d", v.Dot())
	}
	win.Inject(wsys.KeyDownEvent(wsys.KeyUp))
	im.DrainEvents()
	if v.Dot() > 2 {
		t.Fatalf("up: %d", v.Dot())
	}
	win.Inject(wsys.KeyDownEvent(wsys.KeyLeft))
	im.DrainEvents()
	if v.Dot() != 0 {
		t.Fatalf("left: %d", v.Dot())
	}
}

func TestReadOnlyBlocksEdits(t *testing.T) {
	im, win, v, d := newIMWithView(t, "locked", 300, 100)
	v.SetReadOnly(true)
	v.SetDot(0)
	win.Inject(wsys.KeyPress('x'))
	win.Inject(wsys.KeyDownEvent(wsys.KeyBackspace))
	win.Inject(wsys.KeyDownEvent(wsys.KeyDelete))
	im.DrainEvents()
	if d.String() != "locked" {
		t.Fatalf("read-only content changed: %q", d.String())
	}
	// Navigation still works.
	win.Inject(wsys.KeyDownEvent(wsys.KeyRight))
	im.DrainEvents()
	if v.Dot() != 1 {
		t.Fatal("navigation broken in read-only")
	}
}

func TestScrolling(t *testing.T) {
	content := ""
	for i := 0; i < 50; i++ {
		content += "line\n"
	}
	v, _ := newView(t, content, 300, 60)
	total, top, visible := v.ScrollInfo()
	if total != 51 || top != 0 {
		t.Fatalf("info = %d,%d,%d", total, top, visible)
	}
	if visible >= total {
		t.Fatal("everything visible in a 60px window?")
	}
	v.ScrollTo(20)
	_, top, _ = v.ScrollInfo()
	if top != 20 {
		t.Fatalf("top = %d", top)
	}
	v.ScrollTo(999)
	_, top, _ = v.ScrollInfo()
	if top != 50 {
		t.Fatalf("clamped top = %d", top)
	}
	v.ScrollTo(-5)
	if _, top, _ = v.ScrollInfo(); top != 0 {
		t.Fatalf("negative top = %d", top)
	}
}

func TestRevealDotScrolls(t *testing.T) {
	content := strings.Repeat("line\n", 50)
	v, _ := newView(t, content, 300, 60)
	v.SetDot(len("line\n") * 40)
	v.RevealDot()
	_, top, vis := v.ScrollInfo()
	if 40 < top || 40 >= top+vis {
		t.Fatalf("dot line 40 not visible: top=%d vis=%d", top, vis)
	}
}

func TestRenderingProducesInk(t *testing.T) {
	_, win, _, _ := newIMWithView(t, "Dear David,\nEnclosed is a list.", 300, 100)
	snap := win.Snapshot()
	if snap.Count(snap.Bounds(), graphics.Black) < 20 {
		t.Fatal("rendered text produced almost no ink")
	}
}

func TestSelectionHighlightVisible(t *testing.T) {
	im, win, v, _ := newIMWithView(t, "hello world", 300, 100)
	v.SetSelection(0, 5)
	im.FlushUpdates()
	snap := win.Snapshot()
	// Inverted selection yields black background pixels in the first line.
	blacks := snap.Count(graphics.XYWH(0, 0, 40, 16), graphics.Black)
	if blacks < 40 {
		t.Fatalf("selection not visibly inverted: %d black", blacks)
	}
}

func TestEmbeddedChildLayoutAndRouting(t *testing.T) {
	reg := testReg(t)
	d := text.NewString("before  after")
	d.SetRegistry(reg)
	inner := text.NewString("INNER")
	inner.SetRegistry(reg)
	if err := d.Embed(7, inner, "textview"); err != nil {
		t.Fatal(err)
	}

	ws := memwin.New()
	win, _ := ws.NewWindow("embed", 400, 120)
	im := core.NewInteractionManager(ws, win)
	v := New(reg)
	v.SetDataObject(d)
	im.SetChild(v)
	im.FullRedraw()

	e := d.Embeds()[0]
	r, ok := v.ChildRect(e)
	if !ok || r.Empty() {
		t.Fatalf("child rect = %v ok=%v", r, ok)
	}
	// A click inside the child rect lands in the child view, which takes
	// the input focus; typing then edits the INNER text.
	cx, cy := r.Center().X, r.Center().Y
	win.Inject(wsys.Click(cx, cy))
	win.Inject(wsys.Release(cx, cy))
	win.Inject(wsys.KeyPress('!'))
	im.DrainEvents()
	if !strings.Contains(inner.String(), "!") {
		t.Fatalf("inner = %q (child did not get the event)", inner.String())
	}
	if d.String() == "" || strings.Contains(d.Slice(0, 7), "!") {
		t.Fatalf("outer corrupted: %q", d.String())
	}
}

func TestUnknownEmbeddedDrawsPlaceholder(t *testing.T) {
	reg := testReg(t)
	d := text.NewString("x")
	d.SetRegistry(reg)
	_ = d.Embed(1, core.NewUnknownData("music"), "musicview")
	ws := memwin.New()
	win, _ := ws.NewWindow("ph", 200, 60)
	im := core.NewInteractionManager(ws, win)
	v := New(reg)
	v.SetDataObject(d)
	im.SetChild(v)
	im.FullRedraw()
	snap := win.(*memwin.Window).Snapshot()
	if snap.Count(snap.Bounds(), graphics.Gray) == 0 {
		t.Fatal("no placeholder drawn for unknown component")
	}
}

func TestMenusContributed(t *testing.T) {
	im, win, _, _ := newIMWithView(t, "some text", 300, 100)
	win.Inject(wsys.Click(5, 5))
	win.Inject(wsys.Release(5, 5))
	im.DrainEvents()
	ms := im.Menus()
	for _, want := range [][2]string{{"Edit", "Cut"}, {"Edit", "Paste"}, {"Style", "Bold"}} {
		if _, ok := ms.Lookup(want[0], want[1]); !ok {
			t.Errorf("menu %s/%s missing", want[0], want[1])
		}
	}
}

func TestApplyStyleViaMenu(t *testing.T) {
	im, win, v, d := newIMWithView(t, "make me bold", 300, 100)
	win.Inject(wsys.Click(5, 5))
	win.Inject(wsys.Release(5, 5))
	im.DrainEvents()
	v.SetSelection(0, 4)
	win.Inject(wsys.Event{Kind: wsys.MenuEvent, MenuPath: "Style/Bold"})
	im.DrainEvents()
	if d.StyleAt(1) != "bold" {
		t.Fatalf("style = %q", d.StyleAt(1))
	}
}

func TestApplyStyleNoSelectionPostsMessage(t *testing.T) {
	im, _, v, _ := newIMWithView(t, "abc", 300, 100)
	v.SetDot(1)
	v.ApplyStyle("bold")
	if im.Message() == "" {
		t.Fatal("no message for style without selection")
	}
}

func TestCaretTracksEditsFromOtherView(t *testing.T) {
	// Two views on one data object: editing through one adjusts the
	// caret in the other (multiple views, paper §2).
	reg := testReg(t)
	d := text.NewString("shared")
	d.SetRegistry(reg)
	v1, v2 := New(reg), New(reg)
	v1.SetDataObject(d)
	v2.SetDataObject(d)
	v1.SetBounds(graphics.XYWH(0, 0, 200, 50))
	v2.SetBounds(graphics.XYWH(0, 0, 200, 50))
	v2.SetDot(6)
	_ = d.Insert(0, ">> ")
	if v2.Dot() != 9 {
		t.Fatalf("v2 dot = %d", v2.Dot())
	}
	_ = d.Delete(0, 3)
	if v2.Dot() != 6 {
		t.Fatalf("v2 dot after delete = %d", v2.Dot())
	}
}

func TestDesiredSizeGrowsWithContent(t *testing.T) {
	v1, _ := newView(t, "one line", 300, 100)
	_, h1 := v1.DesiredSize(300, 0)
	v2, _ := newView(t, strings.Repeat("many lines\n", 20), 300, 100)
	_, h2 := v2.DesiredSize(300, 0)
	if h2 <= h1 {
		t.Fatalf("heights: %d vs %d", h1, h2)
	}
}

func TestViewStringer(t *testing.T) {
	v, _ := newView(t, "hello\nworld this is long content", 300, 100)
	if !strings.Contains(v.String(), "textview(") {
		t.Fatal("stringer wrong")
	}
	empty := New(testReg(t))
	if empty.String() != "textview(empty)" {
		t.Fatal("empty stringer wrong")
	}
}

// TestReturnAtSoftWrapDamagesCaretLine: a Return typed at the end of a
// soft-wrapped display line re-lays that line in place, but the caret
// moves onto the next display line. The incremental raster must still
// equal a full redraw, caret included.
func TestReturnAtSoftWrapDamagesCaretLine(t *testing.T) {
	im, win, v, _ := newIMWithView(t, strings.Repeat("wrap me ", 12)+"\nnext line\nlast\n", 160, 120)
	if len(v.lines) < 3 || v.lines[0].nlEnd != v.lines[0].end {
		t.Fatalf("first display line does not soft-wrap: %+v", v.lines)
	}
	v.SetDot(v.lines[0].end)
	im.FlushUpdates()
	v.insert("\n") // what Return does
	im.FlushUpdates()
	got := win.Snapshot()
	im.FullRedraw()
	if want := win.Snapshot(); !got.Equal(want) {
		t.Fatal("incremental repaint after Return at a soft wrap differs from a full redraw")
	}
}
