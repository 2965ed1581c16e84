package persist

import (
	"slices"
	"strings"
	"testing"

	"atk/internal/text"
)

// replayOverDoc drives the full recovery path over arbitrary journal
// bytes: parse, decode each record, apply it to a document. This is what a
// crashed session's leftover file — or an attacker's crafted one — feeds
// into ez at startup, so none of it may panic, and damage must only ever
// shorten the replay, never corrupt the document structure.
func replayOverDoc(b []byte) string {
	rep := replayBytes(b)
	doc := text.NewString("seed content\nsecond line\n")
	doc.WithoutUndo(func() {
		for _, payload := range rep.Records {
			rec, err := text.DecodeRecord(payload)
			if err != nil {
				return
			}
			if rec.Kind == text.RecReset {
				return
			}
			if doc.ApplyRecord(rec) != nil {
				return
			}
		}
	})
	return doc.String()
}

func FuzzJournalReplay(f *testing.F) {
	// A well-formed journal.
	mem := NewMemFS()
	j, err := CreateJournal(mem, "j", "base 00000000", nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []string{
		"i 0 hello", "d 2 3", "s 0 4 bold",
		"i 5 " + strings.Repeat("wrap me ", 20),
		"x embedded component",
	} {
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	wellFormed, _ := ReadFile(mem, "j")
	f.Add([]byte(wellFormed))
	f.Add([]byte(wellFormed[:len(wellFormed)-7])) // torn tail
	f.Add([]byte(JournalMagic + "\n"))
	f.Add([]byte(JournalMagic + "\n0 00000000 base\n")) // bad CRC
	f.Add([]byte("not a journal at all"))
	f.Add([]byte("%atkjournal1\n0 deadbeef \\u41;\\q\n"))    // bad escape
	f.Add([]byte("%atkjournal1\n0 ffffffff i 999999 big\n")) // out-of-range edit

	f.Fuzz(func(t *testing.T, b []byte) {
		out := replayOverDoc(b)
		if strings.ContainsRune(out, text.AnchorRune) {
			t.Fatalf("replay smuggled an anchor rune into the buffer")
		}
	})
}

// TestFuzzSeedsReplaySafely runs the seed corpus deterministically so the
// plain test suite exercises the same path without the fuzzing engine.
func TestFuzzSeedsReplaySafely(t *testing.T) {
	for _, s := range []string{
		"", "not a journal", JournalMagic, JournalMagic + "\n",
		JournalMagic + "\n0 00000000 base\n",
		JournalMagic + "\n0 deadbeef i 0 x\n",
		"%atkjournal1\n0 ffffffff i 999999 big\n",
	} {
		_ = replayOverDoc([]byte(s))
	}
}

// FuzzRecords pins the two readers of the framed-record codec to each
// other — the strict read succeeds exactly when the tolerant read reports
// no damage, and then both return the same records — and the writer to
// the readers: any payloads (the records read, and the input's own lines
// taken as payloads) encode to a file that reads back strictly as those
// payloads, each byte that is not UTF-8 turned into U+FFFD.
func FuzzRecords(f *testing.F) {
	whole := EncodeRecords(JournalMagic, []string{"base 00000000", "i 0 h\u00e9llo", "i 5 " + strings.Repeat("wrap me ", 20)})
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                                  // torn tail
	f.Add(whole[:len(whole)-1])                                  // no final newline
	f.Add(EncodeRecords(JournalMagic, nil))                      // magic only
	f.Add(EncodeRecords(IndexMagic, []string{"meta 1 2 3 4 5"})) // other magic
	f.Add([]byte(JournalMagic + "\n1 00000000 out of sequence\n"))
	f.Add([]byte(JournalMagic + "\n0 7C9DBE93 base 00000000\n")) // upper-case CRC
	f.Add([]byte(JournalMagic + "\n0 deadbeef \\u41;\\q\n"))     // bad escape
	f.Add([]byte("\xd5\n\x83"))                                  // payloads that are not UTF-8 apart
	f.Fuzz(func(t *testing.T, b []byte) {
		prefix, damage := readRecordPrefix(b, JournalMagic)
		strict, err := ReadRecords(b, JournalMagic)
		if (err == nil) != (damage == "") {
			t.Fatalf("strict err %v but tolerant damage %q", err, damage)
		}
		if err == nil && !slices.Equal(strict, prefix) {
			t.Fatalf("strict read %q, tolerant read %q", strict, prefix)
		}
		for _, recs := range [][]string{prefix, strings.Split(string(b), "\n")} {
			// The writer escapes runes, so each byte that is not UTF-8
			// reads back as U+FFFD; everything else reads back as written.
			want := make([]string, len(recs))
			for i, r := range recs {
				want[i] = string([]rune(r))
			}
			back, err := ReadRecords(EncodeRecords(JournalMagic, recs), JournalMagic)
			if err != nil || !slices.Equal(back, want) {
				t.Fatalf("payloads %q read back as %q (%v), want %q", recs, back, err, want)
			}
		}
	})
}
