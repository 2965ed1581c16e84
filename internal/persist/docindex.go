package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"atk/internal/datastream"
)

// The offset index is a sidecar written beside every saved document
// (IndexPath), describing the saved bytes well enough that a later open
// can map the document without parsing it: where the top component's
// content payload begins and ends, and how many runes and logical lines
// it holds. It is a framed-record file (records.go) of two records:
//
//	%atkindex2
//	0 <crc> meta <docLen> <docCRC> <headLen> <headCRC> <runes> <lines>
//	1 <crc> comp <type> <id> <contentStart> <contentEnd> <streamable>
//
// The meta record binds the sidecar to one exact saved file: the open
// path trusts the index only when the file's size equals docLen AND the
// CRC of its first headLen bytes equals headCRC. docCRC is the CRC of the
// whole file, carried so the journal can be bound to the saved bytes
// without re-reading them. An index that fails any check — bad magic,
// torn record, CRC mismatch, stale binding — is simply not used; the open
// falls back to the full parse. The index is an accelerator, never an
// authority: wrong bytes are impossible, only slow opens.

// Payload formats of the two index records.
const (
	indexMetaFormat = "meta %d %08x %d %08x %d %d"
	indexCompFormat = "comp %s %d %d %d %d"
)

// headProbe is how many leading bytes the meta record's head CRC covers.
const headProbe = 4096

// IndexPath returns where the offset index for path lives.
func IndexPath(path string) string { return path + ".idx" }

// DocIndex is the parsed offset index of one saved document.
type DocIndex struct {
	// Binding to the saved file (see the meta record).
	DocLen  int64
	DocCRC  uint32
	HeadLen int
	HeadCRC uint32

	// Content geometry of the top-level component.
	CompType     string
	CompID       int
	ContentStart int64 // file offset of the first content payload line
	ContentEnd   int64 // file offset of the closing \enddata line
	Streamable   bool

	// Totals over the content payload.
	Runes int
	Lines int
}

// BuildIndex scans one saved document and derives its offset index in a
// single pass. It never fails: a document whose shape the streaming open
// cannot serve (embedded components, multiple top-level objects, odd
// nesting) yields an index with Streamable == false, which still binds
// the sidecar to the bytes and still lets the journal reuse docCRC.
func BuildIndex(doc []byte) *DocIndex {
	ix := &DocIndex{
		DocLen:  int64(len(doc)),
		DocCRC:  crc32.ChecksumIEEE(doc),
		HeadLen: min(len(doc), headProbe),
	}
	ix.HeadCRC = crc32.ChecksumIEEE(doc[:ix.HeadLen])

	// Physical-line walker over the raw bytes — no per-line allocation,
	// because this runs over the whole document at every save.
	pos := 0
	nextLine := func() ([]byte, int, bool) {
		if pos >= len(doc) {
			return nil, pos, false
		}
		start := pos
		nl := bytes.IndexByte(doc[pos:], '\n')
		if nl < 0 {
			pos = len(doc)
			return doc[start:], start, true
		}
		pos += nl + 1
		return doc[start : start+nl], start, true
	}
	beginPrefix := []byte(`\begindata{`)

	// Top-level begin marker.
	line, _, ok := nextLine()
	typ, id, merr := splitMarker(string(line), `\begindata{`)
	if !ok || merr != nil {
		return ix
	}
	ix.CompType, ix.CompID = typ, id
	endMarker := []byte(fmt.Sprintf(`\enddata{%s,%d}`, typ, id))
	if typ != "text" {
		return ix
	}

	// Optional textstyles block, which must be flat.
	contentStart := pos
	line, off, ok := nextLine()
	if ok && bytes.HasPrefix(line, beginPrefix) {
		styp, sid, serr := splitMarker(string(line), `\begindata{`)
		if serr != nil || styp != "textstyles" {
			return ix
		}
		styleEnd := []byte(fmt.Sprintf(`\enddata{%s,%d}`, styp, sid))
		for {
			line, _, ok = nextLine()
			if !ok || bytes.HasPrefix(line, beginPrefix) {
				return ix
			}
			if bytes.Equal(line, styleEnd) {
				break
			}
		}
		contentStart = pos
		line, off, ok = nextLine()
	}
	ix.ContentStart = int64(contentStart)

	// Content payload: logical text lines only, up to our end marker.
	var scratch []byte
	inLogical := false
	for ok {
		if !inLogical && bytes.Equal(line, endMarker) {
			ix.ContentEnd = int64(off)
			// Nothing may follow the end marker.
			if pos != len(doc) {
				return ix
			}
			ix.Streamable = true
			return ix
		}
		if !inLogical && (bytes.HasPrefix(line, beginPrefix) || bytes.HasPrefix(line, []byte(`\view{`)) || bytes.HasPrefix(line, []byte(`\enddata{`))) {
			return ix // embedded object or foreign nesting: not streamable
		}
		if !inLogical {
			scratch = scratch[:0]
		}
		var cont bool
		var derr error
		scratch, cont, derr = datastream.DecodeAppend(scratch, line)
		if derr != nil {
			return ix
		}
		inLogical = cont
		if !cont {
			ix.Runes += utf8.RuneCount(scratch)
			ix.Lines++
		}
		line, off, ok = nextLine()
	}
	return ix // EOF before the end marker: torn file, not streamable
}

// ContentRunes returns the total rune length of the joined content.
func (ix *DocIndex) ContentRunes() int {
	if ix.Lines == 0 {
		return 0
	}
	return ix.Runes + ix.Lines - 1
}

// splitMarker parses `PREFIXtype,id}` (the datastream marker shape).
func splitMarker(line, prefix string) (typ string, id int, err error) {
	if !strings.HasPrefix(line, prefix) {
		return "", 0, fmt.Errorf("not a %s marker", prefix)
	}
	body := line[len(prefix):]
	if !strings.HasSuffix(body, "}") {
		return "", 0, fmt.Errorf("missing closing brace in %q", line)
	}
	body = body[:len(body)-1]
	comma := strings.LastIndexByte(body, ',')
	if comma < 0 {
		return "", 0, fmt.Errorf("missing comma in %q", line)
	}
	id, err = strconv.Atoi(strings.TrimSpace(body[comma+1:]))
	if err != nil {
		return "", 0, fmt.Errorf("bad id in %q", line)
	}
	return strings.TrimSpace(body[:comma]), id, nil
}

// encode renders the sidecar's full on-disk bytes.
func (ix *DocIndex) encode() []byte {
	streamable := 0
	if ix.Streamable {
		streamable = 1
	}
	return EncodeRecords(IndexMagic, []string{
		fmt.Sprintf(indexMetaFormat, ix.DocLen, ix.DocCRC, ix.HeadLen, ix.HeadCRC, ix.Runes, ix.Lines),
		fmt.Sprintf(indexCompFormat, ix.CompType, ix.CompID, ix.ContentStart, ix.ContentEnd, streamable),
	})
}

// WriteIndex atomically writes the sidecar for path.
func WriteIndex(fsys FS, path string, ix *DocIndex) error {
	b := ix.encode()
	return AtomicWrite(fsys, IndexPath(path), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// parseIndex decodes sidecar bytes. Unlike journal replay there is no
// tolerated damage: any torn, corrupt, out-of-order or malformed record
// invalidates the whole index, because a half-trusted accelerator is worse
// than none.
func parseIndex(b []byte) (*DocIndex, error) {
	recs, err := ReadRecords(b, IndexMagic)
	if err != nil {
		return nil, err
	}
	ix := &DocIndex{}
	streamable := 0
	if len(recs) != 2 ||
		!ScanRecord(recs[0], indexMetaFormat, &ix.DocLen, &ix.DocCRC, &ix.HeadLen, &ix.HeadCRC, &ix.Runes, &ix.Lines) ||
		!ScanRecord(recs[1], indexCompFormat, &ix.CompType, &ix.CompID, &ix.ContentStart, &ix.ContentEnd, &streamable) ||
		streamable < 0 || streamable > 1 {
		return nil, fmt.Errorf("persist: malformed offset index (want meta and comp records)")
	}
	ix.Streamable = streamable == 1
	return ix, nil
}

// LoadIndex reads and validates the offset index for path against the
// document file itself: sizes must match and the head-probe CRC must
// agree. Any failure returns an error; callers treat every error the same
// way — fall back to the full parse.
func LoadIndex(fsys FS, path string) (*DocIndex, error) {
	b, err := ReadFile(fsys, IndexPath(path))
	if err != nil {
		return nil, err
	}
	ix, err := parseIndex(b)
	if err != nil {
		return nil, err
	}
	size, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	if size != ix.DocLen {
		return nil, fmt.Errorf("persist: offset index is stale (file %d bytes, index says %d)", size, ix.DocLen)
	}
	if ix.HeadLen < 0 || int64(ix.HeadLen) > size {
		return nil, fmt.Errorf("persist: offset index head probe out of range")
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, ix.HeadLen)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(head) != ix.HeadCRC {
		return nil, fmt.Errorf("persist: offset index does not match the document bytes")
	}
	if ix.Streamable {
		if ix.ContentStart < 0 || ix.ContentEnd < ix.ContentStart || ix.ContentEnd > size {
			return nil, fmt.Errorf("persist: offset index content range out of bounds")
		}
	}
	return ix, nil
}
