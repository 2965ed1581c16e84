package persist

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"atk/internal/datastream"
)

// Framed records: the one on-disk shape of every file persist keeps beside
// a document. A file is a magic line naming its format, then records, each
// one logical line in the datastream writer's line discipline (printable
// 7-bit ASCII, backslash escapes, continuation-wrapped under 80 columns)
// carrying a sequence number and a CRC:
//
//	%atkjournal1
//	0 4f2a91c3 base 89ab12cd
//	1 0c77be01 i 12 hello
//	2 91d00a2f d 3 4
//
// Sequence numbers count up from 0 and each CRC covers "<seq> <payload>",
// so a reader detects truncation, bit rot and splicing without parsing a
// single payload. What damage means is the caller's decision: journal
// replay keeps the valid prefix (readRecordPrefix), while the offset index
// and the host-state sidecar are accelerators that are either wholly
// right or not used at all (ReadRecords).

// Magic lines of the framed files. A reader that meets any other first line
// treats the file as damaged from its first byte.
const (
	// JournalMagic heads the edit journal (and a client's offline journal):
	// record 0 binds it to a saved document, every later record is one edit.
	JournalMagic = "%atkjournal1"
	// IndexMagic heads the offset-index sidecar: a meta and a comp record.
	IndexMagic = "%atkindex2"
	// HostStateMagic heads a drained host's resume state: crc, epoch and
	// seq records, then one client record per known client.
	HostStateMagic = "%atkhost2"
)

// EncodeRecords renders a whole framed file: the magic line, then each
// payload as a record numbered from 0.
func EncodeRecords(magic string, payloads []string) []byte {
	b := append([]byte(magic), '\n')
	var scratch []byte
	for i, p := range payloads {
		b, scratch = appendFrameRecord(b, scratch, uint64(i), p)
	}
	return b
}

// appendFrameRecord appends one record's on-disk bytes (physical lines,
// each newline-terminated) onto dst, using scratch for the unescaped
// body; it returns the grown dst and scratch for reuse. Journal.Append
// runs it once per committed op on a replication host, so it reuses the
// caller's buffers instead of building throwaway strings.
func appendFrameRecord(dst, scratch []byte, seq uint64, payload string) (out, scratchOut []byte) {
	// Build the CRC input "<seq> <payload>" first, then open nine bytes
	// in the middle for the "<crc> " hex field — one buffer, no Sprintf.
	body := strconv.AppendUint(scratch[:0], seq, 10)
	body = append(body, ' ')
	seqLen := len(body)
	if utf8.ValidString(payload) {
		body = append(body, payload...)
	} else {
		// The escaper writes each byte that is not UTF-8 as U+FFFD (one
		// rune for one, so rune offsets in later records still hold);
		// checksum that text, which is what the reader will decode.
		for _, r := range payload {
			body = utf8.AppendRune(body, r)
		}
	}
	crc := crc32.ChecksumIEEE(body)
	body = append(body, "000000000"...)
	copy(body[seqLen+9:], body[seqLen:len(body)-9])
	const hexDigits = "0123456789abcdef"
	for i, shift := 0, 28; shift >= 0; i, shift = i+1, shift-4 {
		body[seqLen+i] = hexDigits[(crc>>shift)&0xf]
	}
	body[seqLen+8] = ' '
	return datastream.AppendEscapedBytes(dst, body), body
}

// ReadRecords is the strict reader: the payloads of a wholly valid file,
// or an error on any damage at all.
func ReadRecords(b []byte, magic string) ([]string, error) {
	recs, damage := readRecordPrefix(b, magic)
	if damage != "" {
		return nil, fmt.Errorf("persist: %s: %s", magic, damage)
	}
	return recs, nil
}

// readRecordPrefix is the tolerant reader: it returns the payloads of every
// consecutively valid record and stops at the first torn, corrupt or
// out-of-sequence one, describing it in damage ("" for an intact file).
// Nothing after the first damaged record is ever trusted.
func readRecordPrefix(b []byte, magic string) (payloads []string, damage string) {
	s := string(b)
	nl := strings.IndexByte(s, '\n')
	if nl < 0 || s[:nl] != magic {
		return nil, "bad magic line"
	}
	s = s[nl+1:]
	for seq := uint64(0); len(s) > 0; seq++ {
		// One logical line: physical lines joined while continuations ask
		// for more. A missing final newline is a torn append.
		var logical strings.Builder
		for {
			nl = strings.IndexByte(s, '\n')
			if nl < 0 {
				return payloads, fmt.Sprintf("torn record at end of file (no newline); %d records kept", len(payloads))
			}
			line := s[:nl]
			s = s[nl+1:]
			cont, err := datastream.DecodeLine(&logical, line)
			if err != nil {
				return payloads, fmt.Sprintf("undecodable record where seq %d expected: %v", seq, err)
			}
			if !cont {
				break
			}
			if len(s) == 0 {
				return payloads, fmt.Sprintf("continuation runs off end of file; %d records kept", len(payloads))
			}
		}
		got, payload, ok := parseRecord(logical.String())
		if !ok || got != seq {
			return payloads, fmt.Sprintf("invalid record where seq %d expected; %d records kept", seq, len(payloads))
		}
		payloads = append(payloads, payload)
	}
	return payloads, ""
}

// parseRecord splits "<seq> <crc> <payload>" and verifies the CRC.
func parseRecord(body string) (seq uint64, payload string, ok bool) {
	sp1 := strings.IndexByte(body, ' ')
	if sp1 <= 0 {
		return 0, "", false
	}
	seq, err := strconv.ParseUint(body[:sp1], 10, 64)
	if err != nil {
		return 0, "", false
	}
	rest := body[sp1+1:]
	sp2 := strings.IndexByte(rest, ' ')
	if sp2 != 8 { // fixed-width %08x
		return 0, "", false
	}
	crc, err := strconv.ParseUint(rest[:8], 16, 32)
	if err != nil {
		return 0, "", false
	}
	payload = rest[9:]
	if uint32(crc) != crc32.ChecksumIEEE([]byte(fmt.Sprintf("%d %s", seq, payload))) {
		return 0, "", false
	}
	return seq, payload, true
}

// ScanRecord parses a record payload written with fmt.Sprintf(format, ...)
// back into the pointers in args, and accepts it only when re-rendering
// the parsed values gives the payload exactly: no missing or extra
// fields, no stray spaces, no non-canonical numbers.
func ScanRecord(payload, format string, args ...any) bool {
	if _, err := fmt.Sscanf(payload, format, args...); err != nil {
		return false
	}
	vals := make([]any, len(args))
	for i, a := range args {
		vals[i] = reflect.ValueOf(a).Elem().Interface()
	}
	return fmt.Sprintf(format, vals...) == payload
}
