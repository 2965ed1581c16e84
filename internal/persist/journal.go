package persist

import (
	"errors"
	"fmt"
	"io"
)

// The edit journal is an append-only write-ahead log in the framed-record
// format (records.go). Record 0 is the header binding the journal to a
// specific saved document (by CRC of its bytes); every later record is one
// edit. Replay is tolerant of a damaged tail — a crash mid-append leaves a
// torn last record, which is dropped with a diagnostic while everything
// before it is kept — but never trusts anything after the first damaged
// record.

// Journal errors.
var (
	// ErrNoJournal reports that no journal file exists.
	ErrNoJournal = errors.New("persist: no journal")
	// ErrJournalClosed reports an append to a closed journal.
	ErrJournalClosed = errors.New("persist: journal closed")
)

// DefaultBatchEvery is the default fsync batching: an explicit Sync (the
// idle autosave) or every Nth append flushes, so a burst of typing costs
// one fsync per batch, not per keystroke.
const DefaultBatchEvery = 8

// Journal is an append-only edit log open for writing.
type Journal struct {
	fsys FS
	path string
	f    File
	seq  uint64
	// BatchEvery bounds how many appends may ride on one fsync; 1 makes
	// every append durable immediately. Set before the first Append.
	BatchEvery int
	pending    int
	err        error
	// wbuf/scratch are reusable append buffers (see appendFrameRecord).
	wbuf    []byte
	scratch []byte
}

// CreateJournal atomically writes a fresh journal at path containing the
// header and any carried-over records, then reopens it for appending. The
// atomic rewrite means a crash mid-creation leaves either the previous
// journal or the complete new one.
func CreateJournal(fsys FS, path, header string, records []string) (*Journal, error) {
	b := EncodeRecords(JournalMagic, append([]string{header}, records...))
	err := AtomicWrite(fsys, path, func(w io.Writer) error {
		_, werr := w.Write(b)
		return werr
	})
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Journal{fsys: fsys, path: path, f: f, seq: uint64(len(records)), BatchEvery: DefaultBatchEvery}, nil
}

// OpenJournal reopens an existing, fully valid journal for appending,
// continuing its sequence. The caller must have replayed it first and seen
// Damaged == false; appending after a torn tail would bury valid records
// behind junk. rep is that replay.
func OpenJournal(fsys FS, path string, rep *Replay) (*Journal, error) {
	if rep == nil || rep.Damaged {
		return nil, fmt.Errorf("persist: refusing to append to a damaged journal (rewrite it)")
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Journal{fsys: fsys, path: path, f: f, seq: uint64(len(rep.Records)), BatchEvery: DefaultBatchEvery}, nil
}

// Append writes one record. Durability is batched: the record is on disk
// after the write but guaranteed stable only after the batch's fsync (every
// BatchEvery appends) or an explicit Sync. The first error latches: once an
// append fails the journal refuses further writes, so a disk-full journal
// cannot silently drop arbitrary interior records.
func (j *Journal) Append(rec string) error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return ErrJournalClosed
	}
	j.seq++
	j.wbuf, j.scratch = appendFrameRecord(j.wbuf[:0], j.scratch, j.seq, rec)
	if _, err := j.f.Write(j.wbuf); err != nil {
		j.err = fmt.Errorf("persist: journal append: %w", err)
		return j.err
	}
	j.pending++
	batch := j.BatchEvery
	if batch <= 0 {
		batch = DefaultBatchEvery
	}
	if j.pending >= batch {
		return j.Sync()
	}
	return nil
}

// Sync makes every appended record durable.
func (j *Journal) Sync() error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return ErrJournalClosed
	}
	if j.pending == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("persist: journal sync: %w", err)
		return j.err
	}
	j.pending = 0
	return nil
}

// Seq returns the sequence number of the last appended record.
func (j *Journal) Seq() uint64 { return j.seq }

// Err returns the latched error, if any.
func (j *Journal) Err() error { return j.err }

// Close flushes every batched-but-unsynced record and closes the journal
// file (the file remains on disk; see DocFile for when it is discarded).
// The flush runs even when an earlier append latched an error: records
// acknowledged before the failure are on the file and deserve their fsync —
// replay tolerates the torn tail the failed append may have left, but it
// cannot recover records the kernel was never asked to keep. Any sync or
// close failure latches, so Err() keeps reporting it after Close.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.err
	if j.pending > 0 {
		if serr := j.f.Sync(); serr != nil {
			if j.err == nil {
				j.err = fmt.Errorf("persist: journal sync: %w", serr)
			}
			if err == nil {
				err = j.err
			}
		} else {
			j.pending = 0
		}
	}
	if cerr := j.f.Close(); cerr != nil {
		if j.err == nil {
			j.err = fmt.Errorf("persist: journal close: %w", cerr)
		}
		if err == nil {
			err = j.err
		}
	}
	j.f = nil
	return err
}

// Replay is the result of reading a journal back.
type Replay struct {
	// Header is record 0.
	Header string
	// Records are the valid records after the header, in order.
	Records []string
	// Damaged reports that the file ended in (or contained) an invalid
	// record; Records holds everything before the damage.
	Damaged bool
	// Diag describes the damage for the recovery report.
	Diag string
}

// ReplayJournal reads the journal at path with truncated-tail tolerance:
// it returns every consecutively valid record and stops at the first torn,
// corrupt, or out-of-sequence one. A missing file returns ErrNoJournal;
// only I/O errors are returned as errors — damage is data, not failure.
func ReplayJournal(fsys FS, path string) (*Replay, error) {
	b, err := ReadFile(fsys, path)
	if err != nil {
		if IsNotExist(err) {
			return nil, ErrNoJournal
		}
		return nil, err
	}
	return replayBytes(b), nil
}

// replayBytes parses journal content: the valid record prefix, with the
// damage (if any) recorded rather than returned as an error.
func replayBytes(b []byte) *Replay {
	recs, damage := readRecordPrefix(b, JournalMagic)
	rep := &Replay{Damaged: damage != "", Diag: damage}
	if len(recs) == 0 {
		if !rep.Damaged {
			rep.Damaged, rep.Diag = true, "journal has no header record"
		}
		return rep
	}
	rep.Header, rep.Records = recs[0], recs[1:]
	return rep
}
