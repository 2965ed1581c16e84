package ops

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/table"
	"atk/internal/text"
)

// --- randomized table-op commutativity --------------------------------
//
// The convergence property the whole subsystem rests on (TP1): for any
// state S and any two ops a, b both valid in S,
//
//	apply(apply(S, a), T(b, a)) == apply(apply(S, b), T(a, b))
//
// where T rewrites one op across the other with a consistent server-order
// tiebreak. These tests check it over randomized states and op pairs, at
// table granularity first and then over full documents with embedded
// components.

func randGrid(rng *rand.Rand) *table.Data {
	rows := 1 + rng.Intn(5)
	cols := 1 + rng.Intn(5)
	d := table.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			switch rng.Intn(4) {
			case 0:
				// leave empty
			case 1:
				if err := d.SetText(r, c, fmt.Sprintf("s%d.%d", r, c)); err != nil {
					panic(err)
				}
			case 2:
				if err := d.SetNumber(r, c, float64(rng.Intn(1000))); err != nil {
					panic(err)
				}
			case 3:
				if err := d.SetFormula(r, c, "=1+2"); err != nil {
					panic(err)
				}
			}
		}
	}
	return d
}

func gridFingerprint(d *table.Data) string {
	rows, cols := d.Dims()
	var b bytes.Buffer
	fmt.Fprintf(&b, "%dx%d", rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell, err := d.Cell(r, c)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&b, "|%d:%q:%g", cell.Kind, cell.Str, cell.Value)
		}
	}
	return b.String()
}

func cloneGrid(d *table.Data) *table.Data {
	rows, cols := d.Dims()
	n := table.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell, _ := d.Cell(r, c)
			switch cell.Kind {
			case table.Text:
				_ = n.SetText(r, c, cell.Str)
			case table.Number:
				_ = n.SetNumber(r, c, cell.Value)
			case table.Formula:
				_ = n.SetFormula(r, c, cell.Str)
			}
		}
	}
	return n
}

// randTableOp generates an op valid against a rows x cols grid.
func randTableOp(rng *rand.Rand, rows, cols int) (table.Op, bool) {
	kinds := []table.OpKind{table.OpCellSet, table.OpRowInsert, table.OpRowDelete, table.OpColInsert, table.OpColDelete}
	k := kinds[rng.Intn(len(kinds))]
	switch k {
	case table.OpCellSet:
		if rows == 0 || cols == 0 {
			return table.Op{}, false
		}
		op := table.Op{Kind: k, R: rng.Intn(rows), C: rng.Intn(cols)}
		switch rng.Intn(3) {
		case 0:
			op.Cell = table.CellSpec{Kind: table.Text, Str: fmt.Sprintf("w%d", rng.Intn(100))}
		case 1:
			op.Cell = table.CellSpec{Kind: table.Number, Value: float64(rng.Intn(100))}
		default:
			// empty (clear)
		}
		return op, true
	case table.OpRowInsert:
		return table.Op{Kind: k, R: rng.Intn(rows + 1), N: 1 + rng.Intn(2)}, true
	case table.OpRowDelete:
		if rows == 0 {
			return table.Op{}, false
		}
		r := rng.Intn(rows)
		return table.Op{Kind: k, R: r, N: 1 + rng.Intn(rows-r)}, true
	case table.OpColInsert:
		return table.Op{Kind: k, C: rng.Intn(cols + 1), N: 1 + rng.Intn(2)}, true
	default:
		if cols == 0 {
			return table.Op{}, false
		}
		c := rng.Intn(cols)
		return table.Op{Kind: k, C: c, N: 1 + rng.Intn(cols-c)}, true
	}
}

func TestXformTableOpCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		base := randGrid(rng)
		rows, cols := base.Dims()
		a, ok := randTableOp(rng, rows, cols)
		if !ok {
			continue
		}
		b, ok := randTableOp(rng, rows, cols)
		if !ok {
			continue
		}

		// Side 1: a commits first, b rebases across it (b is server-later).
		s1 := cloneGrid(base)
		if err := s1.ApplyOp(a); err != nil {
			t.Fatalf("iter %d: apply a=%+v: %v", i, a, err)
		}
		if b2, keep := xformTableOp(b, a, true); keep {
			if err := s1.ApplyOp(b2); err != nil {
				t.Fatalf("iter %d: apply T(b,a)=%+v after a=%+v: %v", i, b2, a, err)
			}
		}

		// Side 2: b commits first, a rebases across it (a is server-earlier
		// in the tiebreak — the dual of side 1's ordering).
		s2 := cloneGrid(base)
		if err := s2.ApplyOp(b); err != nil {
			t.Fatalf("iter %d: apply b=%+v: %v", i, b, err)
		}
		if a2, keep := xformTableOp(a, b, false); keep {
			if err := s2.ApplyOp(a2); err != nil {
				t.Fatalf("iter %d: apply T(a,b)=%+v after b=%+v: %v", i, a2, b, err)
			}
		}

		if f1, f2 := gridFingerprint(s1), gridFingerprint(s2); f1 != f2 {
			t.Fatalf("iter %d: diverged\n  a=%+v\n  b=%+v\n  a-then-b': %s\n  b-then-a': %s",
				i, a, b, f1, f2)
		}
	}
}

// --- randomized document-level commutativity ---------------------------

func opsTestRegistry(t testing.TB) *class.Registry {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := table.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func encodeDoc(t testing.TB, doc *text.Data) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := datastream.NewWriter(&buf)
	if _, err := core.WriteObject(w, doc); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func cloneDoc(t testing.TB, doc *text.Data, reg *class.Registry) *text.Data {
	t.Helper()
	b := encodeDoc(t, doc)
	r := datastream.NewReaderOptions(bytes.NewReader(b), datastream.Options{Mode: datastream.Strict})
	obj, err := core.ReadObject(r, reg)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := obj.(*text.Data)
	if !ok {
		t.Fatalf("clone decoded a %s", obj.TypeName())
	}
	d.SetRegistry(reg)
	return d
}

func embedPayload(t testing.TB, obj core.DataObject) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := datastream.NewWriter(&buf)
	if _, err := core.WriteObject(w, obj); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// baseDoc builds the randomized starting state: text with one embedded
// table somewhere inside it.
func baseDoc(t testing.TB, rng *rand.Rand, reg *class.Registry) *text.Data {
	doc := text.NewString("the quick brown fox jumps over the lazy dog")
	doc.SetRegistry(reg)
	td := table.New(2+rng.Intn(3), 2+rng.Intn(3))
	_ = td.SetNumber(0, 0, 42)
	_ = td.SetText(1, 1, "seed")
	if err := doc.Embed(5+rng.Intn(10), td, ""); err != nil {
		t.Fatal(err)
	}
	return doc
}

// randDocOp generates a document-level op valid against doc's current
// state: a text edit, a table op addressed at a live table anchor, or an
// embed insert.
func randDocOp(t testing.TB, rng *rand.Rand, doc *text.Data) (Op, bool) {
	switch rng.Intn(6) {
	case 0, 1: // insert
		pos := rng.Intn(doc.Len() + 1)
		return TextOp(text.EditRecord{Kind: text.RecInsert, Pos: pos, Text: fmt.Sprintf("+%c", 'a'+rune(rng.Intn(26)))}), true
	case 2: // delete
		if doc.Len() == 0 {
			return Op{}, false
		}
		pos := rng.Intn(doc.Len())
		n := 1 + rng.Intn(minInt(4, doc.Len()-pos))
		return TextOp(text.EditRecord{Kind: text.RecDelete, Pos: pos, N: n}), true
	case 3: // embed a fresh table
		pos := rng.Intn(doc.Len() + 1)
		td := table.New(2, 2)
		_ = td.SetNumber(0, 0, float64(rng.Intn(100)))
		return Op{Kind: KindEmbed, Embed: EmbedOp{Pos: pos, Payload: embedPayload(t, td)}}, true
	default: // table op on a live embedded table
		embeds := doc.Embeds()
		var tables []*text.Embedded
		for _, e := range embeds {
			if _, ok := e.Obj.(*table.Data); ok {
				tables = append(tables, e)
			}
		}
		if len(tables) == 0 {
			return Op{}, false
		}
		e := tables[rng.Intn(len(tables))]
		td := e.Obj.(*table.Data)
		rows, cols := td.Dims()
		top, ok := randTableOp(rng, rows, cols)
		if !ok {
			return Op{}, false
		}
		return Op{Kind: KindTable, Table: TableOp{Pos: e.Pos, Op: top}}, true
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestXformDocOpsCommute is the document-level TP1 check: any valid op
// pair — text vs text, text vs table, table vs embed, embed vs embed —
// converges byte-identically under both application orders.
func TestXformDocOpsCommute(t *testing.T) {
	reg := opsTestRegistry(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1500; i++ {
		base := baseDoc(t, rng, reg)
		a, ok := randDocOp(t, rng, base)
		if !ok {
			continue
		}
		b, ok := randDocOp(t, rng, base)
		if !ok {
			continue
		}

		s1 := cloneDoc(t, base, reg)
		if err := Apply(s1, a); err != nil {
			t.Fatalf("iter %d: apply a=%+v: %v", i, a, err)
		}
		for _, op := range Xform(b, a, true) {
			if err := Apply(s1, op); err != nil {
				t.Fatalf("iter %d: apply T(b,a)=%+v after a=%+v: %v", i, op, a, err)
			}
		}

		s2 := cloneDoc(t, base, reg)
		if err := Apply(s2, b); err != nil {
			t.Fatalf("iter %d: apply b=%+v: %v", i, b, err)
		}
		for _, op := range Xform(a, b, false) {
			if err := Apply(s2, op); err != nil {
				t.Fatalf("iter %d: apply T(a,b)=%+v after b=%+v: %v", i, op, b, err)
			}
		}

		e1, e2 := encodeDoc(t, s1), encodeDoc(t, s2)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("iter %d: diverged\n  a=%+v\n  b=%+v\n  a-first: %q\n  b-first: %q",
				i, a, b, e1, e2)
		}
	}
}

// TestTwoClientRebaseDeterminism scripts the server's rebase exactly as
// docserve runs it: two clients each build a local op sequence against the
// same base; the server commits A's group first and rebases B's across it
// with XformDual; both clients fold the dual bridge. All three replicas
// must land byte-identical — including the embedded tables' cells.
func TestTwoClientRebaseDeterminism(t *testing.T) {
	reg := opsTestRegistry(t)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		base := baseDoc(t, rng, reg)

		// Client A applies a local sequence; each op is generated against
		// A's current (already mutated) state, like real typing.
		docA := cloneDoc(t, base, reg)
		var as []Op
		for n := 1 + rng.Intn(4); len(as) < n; {
			op, ok := randDocOp(t, rng, docA)
			if !ok {
				break
			}
			if err := Apply(docA, op); err != nil {
				t.Fatalf("iter %d: A local apply %+v: %v", i, op, err)
			}
			as = append(as, op)
		}

		docB := cloneDoc(t, base, reg)
		var bs []Op
		for n := 1 + rng.Intn(4); len(bs) < n; {
			op, ok := randDocOp(t, rng, docB)
			if !ok {
				break
			}
			if err := Apply(docB, op); err != nil {
				t.Fatalf("iter %d: B local apply %+v: %v", i, op, err)
			}
			bs = append(bs, op)
		}
		if len(as) == 0 || len(bs) == 0 {
			continue
		}

		// The server commits as first, then bs rebased across as. The dual
		// also yields as rebased across bs — the bridge it fans to B.
		bs2, as2 := XformDual(bs, as, true)

		server := cloneDoc(t, base, reg)
		for _, op := range append(append([]Op{}, as...), bs2...) {
			if err := Apply(server, op); err != nil {
				t.Fatalf("iter %d: server apply %+v: %v", i, op, err)
			}
		}

		// Client A receives bs2 as foreign committed ops.
		for _, op := range bs2 {
			if err := Apply(docA, op); err != nil {
				t.Fatalf("iter %d: A foreign apply %+v: %v", i, op, err)
			}
		}
		// Client B folds the bridge: as transformed past its local bs.
		for _, op := range as2 {
			if err := Apply(docB, op); err != nil {
				t.Fatalf("iter %d: B bridge apply %+v: %v", i, op, err)
			}
		}

		es := encodeDoc(t, server)
		if ea := encodeDoc(t, docA); !bytes.Equal(es, ea) {
			t.Fatalf("iter %d: A diverged from server\n  as=%+v\n  bs=%+v\n  server: %q\n  A: %q", i, as, bs, es, ea)
		}
		if eb := encodeDoc(t, docB); !bytes.Equal(es, eb) {
			t.Fatalf("iter %d: B diverged from server\n  as=%+v\n  bs=%+v\n  server: %q\n  B: %q", i, as, bs, es, eb)
		}
	}
}

// --- text transform cases ---------------------------------------------
//
// TP1 over bare text records: the insert/delete/style rules of XformText,
// pinned case by case and then over random pairs and sequences.

// applyAll replays recs over a fresh document seeded with base.
func applyAll(t *testing.T, base string, seqs ...[]text.EditRecord) *text.Data {
	t.Helper()
	d := text.NewString(base)
	for _, recs := range seqs {
		for _, rec := range recs {
			if err := d.ApplyRecord(rec); err != nil {
				t.Fatalf("applying %s to %q: %v", text.EncodeRecord(rec), d.String(), err)
			}
		}
	}
	return d
}

func ins(pos int, s string) text.EditRecord {
	return text.EditRecord{Kind: text.RecInsert, Pos: pos, Text: s}
}

func del(pos, n int) text.EditRecord {
	return text.EditRecord{Kind: text.RecDelete, Pos: pos, N: n}
}

func sty(runs ...text.Run) text.EditRecord {
	return text.EditRecord{Kind: text.RecStyle, Runs: runs}
}

// sameDoc asserts two documents are byte-identical, styles included.
func sameDoc(t *testing.T, label string, a, b *text.Data) {
	t.Helper()
	if a.String() != b.String() {
		t.Fatalf("%s: text diverged:\n  a=%q\n  b=%q", label, a.String(), b.String())
	}
	ra, rb := a.Runs(), b.Runs()
	if len(ra) != len(rb) {
		t.Fatalf("%s: runs diverged: %v vs %v", label, ra, rb)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: runs diverged at %d: %v vs %v", label, i, ra, rb)
		}
	}
}

// checkTP1 asserts the convergence property for one pair: with b the
// server-later op, base+a+XformText(b,a,later) == base+b+XformText(a,b,earlier).
// baseRuns, when present, pre-style the shared base state — the hard cases
// are ops racing over text that already carries runs.
func checkTP1(t *testing.T, label, base string, a, b text.EditRecord, baseRuns ...text.Run) {
	t.Helper()
	pre := []text.EditRecord{}
	if len(baseRuns) > 0 {
		pre = append(pre, sty(baseRuns...))
	}
	d1 := applyAll(t, base, pre, []text.EditRecord{a}, XformText(b, a, true))
	d2 := applyAll(t, base, pre, []text.EditRecord{b}, XformText(a, b, false))
	sameDoc(t, label, d1, d2)
}

// checkTP1Text asserts text convergence only. Over pre-styled state the
// run lists may legitimately differ after an insert/delete race (run
// growth is state-dependent; see the transform package comment) — the
// host's style checkpoint heals that, which the end-to-end serve tests
// verify. The text itself must converge unconditionally.
func checkTP1Text(t *testing.T, label, base string, a, b text.EditRecord, baseRuns ...text.Run) {
	t.Helper()
	pre := []text.EditRecord{}
	if len(baseRuns) > 0 {
		pre = append(pre, sty(baseRuns...))
	}
	d1 := applyAll(t, base, pre, []text.EditRecord{a}, XformText(b, a, true))
	d2 := applyAll(t, base, pre, []text.EditRecord{b}, XformText(a, b, false))
	if d1.String() != d2.String() {
		t.Fatalf("%s: text diverged:\n  a=%q\n  b=%q", label, d1.String(), d2.String())
	}
}

func TestXformTableCases(t *testing.T) {
	cases := []struct {
		name string
		base string
		a, b text.EditRecord // a committed first, b second
	}{
		{"insert before insert", "hello", ins(1, "XX"), ins(3, "YY")},
		{"insert after insert", "hello", ins(4, "XX"), ins(1, "YY")},
		{"insert tie same pos", "hello", ins(2, "AA"), ins(2, "BB")},
		{"insert tie at start", "hello", ins(0, "AA"), ins(0, "BB")},
		{"insert at end tie", "hi", ins(2, "AA"), ins(2, "BB")},
		{"delete before insert", "hello world", del(0, 3), ins(8, "X")},
		{"delete after insert", "hello world", del(8, 2), ins(2, "X")},
		{"insert inside deleted range", "hello world", del(2, 6), ins(4, "XY")},
		{"insert at delete start", "hello", del(1, 3), ins(1, "X")},
		{"insert at delete end", "hello", del(1, 3), ins(4, "X")},
		{"delete inside insert shift", "hello", ins(2, "abc"), del(3, 2)},
		{"disjoint deletes", "abcdefgh", del(0, 2), del(5, 2)},
		{"overlapping deletes", "abcdefgh", del(2, 4), del(4, 3)},
		{"nested delete", "abcdefgh", del(1, 6), del(3, 2)},
		{"identical deletes", "abcdefgh", del(2, 3), del(2, 3)},
		{"style vs style lww", "abcdef", sty(text.Run{Start: 0, End: 3, Style: "bold"}), sty(text.Run{Start: 2, End: 5, Style: "italic"})},
		{"style vs insert", "abcdef", ins(2, "XY"), sty(text.Run{Start: 1, End: 4, Style: "bold"})},
		{"style vs delete", "abcdef", del(1, 3), sty(text.Run{Start: 0, End: 5, Style: "bold"})},
		{"style swallowed by delete", "abcdef", del(1, 3), sty(text.Run{Start: 2, End: 3, Style: "bold"})},
		{"unicode insert widths", "héllo", ins(1, "ωω"), ins(3, "x")},
	}
	for _, c := range cases {
		checkTP1(t, c.name, c.base, c.a, c.b)
	}
}

func TestXformDeleteSwallowsInsideInsert(t *testing.T) {
	// An insert strictly inside a concurrently deleted range goes with the
	// range — deterministically, in both orders (the convergent rule; see
	// the transform's package comment for why splitting cannot converge on
	// style runs).
	base := "hello world"
	a, b := ins(7, "NEW"), del(3, 6) // delete "lo wor", insert inside it
	d1 := applyAll(t, base, []text.EditRecord{a}, XformText(b, a, true))
	if strings.Contains(d1.String(), "NEW") {
		t.Fatalf("insert inside a concurrent delete should be swallowed: %q", d1.String())
	}
	if d1.String() != "helld" {
		t.Fatalf("got %q, want %q", d1.String(), "helld")
	}
	checkTP1(t, "swallow", base, a, b)
	// Inserts at the range boundaries survive on both sides.
	checkTP1(t, "boundary start", base, ins(3, "S"), del(3, 6))
	checkTP1(t, "boundary end", base, ins(9, "E"), del(3, 6))
}

func TestXformStyleLastWriterWins(t *testing.T) {
	// The server-later style record's run list must be the final one in
	// both orders; the earlier record vanishes when rewritten past it.
	later := sty(text.Run{Start: 1, End: 2, Style: "italic"})
	earlier := sty(text.Run{Start: 0, End: 3, Style: "bold"})
	if got := XformText(earlier, later, false); got != nil {
		t.Fatalf("earlier style record should be superseded, got %v", got)
	}
	if got := XformText(later, earlier, true); len(got) != 1 || got[0].Runs[0].Style != "italic" {
		t.Fatalf("later style record should pass unchanged, got %v", got)
	}
}

// randRec produces a random record valid in a document of n runes. With
// styles false it only produces inserts and deletes.
func randRec(rng *rand.Rand, n int, styles bool) text.EditRecord {
	alphabet := []rune("abXY9ω€\n")
	kinds := 3
	if !styles {
		kinds = 2
	}
	switch k := rng.Intn(kinds); {
	case k == 0 || n == 0: // insert
		m := 1 + rng.Intn(3)
		var b strings.Builder
		for i := 0; i < m; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return ins(rng.Intn(n+1), b.String())
	case k == 1: // delete
		pos := rng.Intn(n)
		return del(pos, 1+rng.Intn(min(n-pos, 3)))
	default: // style: random ordered non-overlapping runs
		return sty(randRuns(rng, n)...)
	}
}

// randRuns produces a random valid (ordered, non-overlapping) run list
// for a document of n runes; possibly empty.
func randRuns(rng *rand.Rand, n int) []text.Run {
	var runs []text.Run
	names := []string{"bold", "italic", "bigger"}
	at := 0
	for at < n && len(runs) < 3 && rng.Intn(2) == 0 {
		start := at + rng.Intn(n-at)
		end := start + 1 + rng.Intn(n-start)
		runs = append(runs, text.Run{Start: start, End: end, Style: names[rng.Intn(len(names))]})
		at = end
	}
	return runs
}

func randBase(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(rune('a' + rng.Intn(26)))
	}
	return b.String()
}

func TestQuickXformPairConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		base := randBase(rng, rng.Intn(12))
		n := len([]rune(base))
		a, b := randRec(rng, n, true), randRec(rng, n, true)
		label := fmt.Sprintf("iter %d: a=%s b=%s base=%q", iter, text.EncodeRecord(a), text.EncodeRecord(b), base)
		// Unstyled base: full convergence, runs included (any runs in play
		// travel inside the records being transformed).
		checkTP1(t, label, base, a, b)
		// Pre-styled base: text must still converge unconditionally. Runs
		// may differ here (state-dependent growth) until the host's style
		// checkpoint pins them — covered by the end-to-end serve tests.
		if n > 0 {
			runs := randRuns(rng, n)
			checkTP1Text(t, label+fmt.Sprintf(" runs=%v", runs), base, a, b, runs...)
		}
	}
}

// randSeq produces a sequence of records, each valid after the previous
// ones (sequential within itself), by simulating on a scratch document.
func randSeq(t *testing.T, rng *rand.Rand, base string, k int, styles bool) []text.EditRecord {
	t.Helper()
	d := text.NewString(base)
	var recs []text.EditRecord
	for i := 0; i < k; i++ {
		rec := randRec(rng, len([]rune(d.String())), styles)
		if err := d.ApplyRecord(rec); err != nil {
			t.Fatalf("randSeq: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// Style-free sequences must converge completely under the dual transform.
func TestQuickXformDualSequenceConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 1500; iter++ {
		base := randBase(rng, rng.Intn(10))
		xs := randSeq(t, rng, base, 1+rng.Intn(3), false)
		ys := randSeq(t, rng, base, 1+rng.Intn(3), false)
		xs2, ys2 := xformDualText(xs, ys, true) // xs is server-later
		d1 := applyAll(t, base, ys, xs2)        // server order: ys first
		d2 := applyAll(t, base, xs, ys2)        // client order: xs first
		sameDoc(t, fmt.Sprintf("iter %d base=%q xs=%v ys=%v xs2=%v ys2=%v", iter, base, enc(xs), enc(ys), enc(xs2), enc(ys2)), d1, d2)
	}
}

// Styled sequences must converge on text unconditionally; run lists may
// differ until the host's style checkpoint (end-to-end tests) pins them.
func TestQuickXformDualSequenceTextConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1500; iter++ {
		base := randBase(rng, rng.Intn(10))
		xs := randSeq(t, rng, base, 1+rng.Intn(3), true)
		ys := randSeq(t, rng, base, 1+rng.Intn(3), true)
		xs2, ys2 := xformDualText(xs, ys, true)
		d1 := applyAll(t, base, ys, xs2)
		d2 := applyAll(t, base, xs, ys2)
		if d1.String() != d2.String() {
			t.Fatalf("iter %d base=%q xs=%v ys=%v: text diverged:\n  %q\n  %q",
				iter, base, enc(xs), enc(ys), d1.String(), d2.String())
		}
	}
}

// TestXformDualNoAliasing pins the capacity-clipping: appending to a
// returned slice must never scribble into the caller's arrays.
func TestXformDualNoAliasing(t *testing.T) {
	xs := make([]Op, 1, 8)
	xs[0] = TextOp(ins(0, "a"))
	xs2, _ := XformDual(xs, nil, true)
	_ = append(xs2, TextOp(ins(9, "scribble")))
	if xs[:cap(xs)][1].Text.Text == "scribble" {
		t.Fatal("XformDual returned an aliasing slice")
	}
}

// xformDualText runs bare text records through XformDual, the sequence
// transform the client rebases with.
func xformDualText(xs, ys []text.EditRecord, xsLater bool) (xs2, ys2 []text.EditRecord) {
	wrap := func(recs []text.EditRecord) []Op {
		out := make([]Op, len(recs))
		for i, r := range recs {
			out[i] = TextOp(r)
		}
		return out
	}
	unwrap := func(ops []Op) []text.EditRecord {
		out := make([]text.EditRecord, len(ops))
		for i, op := range ops {
			out[i] = op.Text
		}
		return out
	}
	a, b := XformDual(wrap(xs), wrap(ys), xsLater)
	return unwrap(a), unwrap(b)
}

func enc(recs []text.EditRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = text.EncodeRecord(r)
	}
	return out
}
