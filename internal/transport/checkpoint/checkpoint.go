// Package checkpoint is the parameter server's durability layer: the full
// server state at the close of each round, encoded as one wire-codec frame
// (KindRoundClose — the same varint and tensor-slab format the network uses,
// so the on-disk state round-trips bit-exactly, NaN payloads and negative
// zeros included). Each on-disk record is one frame followed by a CRC-32C of
// its bytes: the wire leaves integrity to TCP, but a disk record must detect
// bit rot and torn writes itself, and the frame format alone cannot — a
// flipped bit inside a float slab still parses.
//
// Layout inside the checkpoint directory:
//
//	round.0.ckpt  the record of the latest even round
//	round.1.ckpt  the record of the latest odd round
//
// Round r's record is written in one write at offset 0 of slot r&1 and
// fsync'd; nothing is ever renamed, unlinked or truncated, since on a
// filesystem that discards freed blocks each of those costs tens of
// milliseconds where an in-place overwrite costs a fraction of one
// (DESIGN.md §5c). A record shorter than the one it overwrites leaves stale
// bytes behind its CRC; the reader stops at the first invalid record, so it
// never sees them.
//
// Recovery writes nothing. It reads both slots — and the snapshot.ckpt,
// snapshot.prev.ckpt and wal.log the earlier snapshot + WAL layout wrote,
// when present — and returns the highest-round valid record.
//
// Crash matrix (see DESIGN.md for the full discussion):
//
//   - crash mid-write of round r: slot r&1 may hold a torn record, which
//     fails its CRC; the other slot still holds round r-1. At most one
//     round is lost.
//   - crash mid-round: nothing was written for the open round; it is
//     re-run after recovery.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"fedmp/internal/transport/codec"
)

// castagnoli is the CRC-32C polynomial (hardware-accelerated on the
// platforms we run on).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errChecksum reports a record whose frame parsed but whose trailer CRC did
// not match — bit rot, or a torn write that landed inside valid-looking
// bytes.
var errChecksum = errors.New("checkpoint: record checksum mismatch")

// errClosed refuses work on a Manager after Close.
var errClosed = errors.New("checkpoint: manager is closed")

// writeRecord writes one durability record — frame ‖ CRC-32C(frame) — at
// offset 0 of w in a single WriteAt, encoding it into *buf: a grow-only
// buffer its owner keeps between records, so a steady-state record
// allocates nothing.
func writeRecord(w io.WriterAt, buf *[]byte, e *codec.Envelope) error {
	rec, err := codec.AppendFrame((*buf)[:0], e)
	if err != nil {
		return err
	}
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, castagnoli))
	*buf = rec
	_, err = w.WriteAt(rec, 0)
	return err
}

// readRecord reads and verifies one durability record, returning the
// envelope and the total bytes consumed (frame plus trailer).
func readRecord(r io.Reader) (*codec.Envelope, int, error) {
	h := crc32.New(castagnoli)
	e, n, err := codec.ReadFrame(io.TeeReader(r, h))
	if err != nil {
		return nil, n, err
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, n, err
	}
	if binary.LittleEndian.Uint32(crc[:]) != h.Sum32() {
		return nil, n + 4, errChecksum
	}
	return e, n + 4, nil
}

// slotNames are the two files rounds are written to, by parity.
var slotNames = [2]string{"round.0.ckpt", "round.1.ckpt"}

// legacyNames are the files the snapshot + WAL layout wrote. Recover still
// reads them, so a directory that layout left behind resumes; nothing
// writes them any more.
var legacyNames = []string{"snapshot.ckpt", "snapshot.prev.ckpt", "wal.log"}

// slot is what the Manager asks of a slot file: an *os.File, or in tests a
// wrapper that counts or refuses the calls. Every read and write names its
// offset; Seek only measures the file.
type slot interface {
	io.ReaderAt
	io.WriterAt
	io.Seeker
	Sync() error
	Close() error
}

// file is what this package asks of a file it opened: a slot's calls, and
// Read for the legacy files Recover reads whole. *os.File is one.
type file interface {
	slot
	io.Reader
}

// opened is the fault seam under Open and Recover: every file this package
// opens — both slots, the directory for its fsync, each legacy file — passes
// through it on the way in, with its open's error. Here it hands the file on;
// a test's version fails the open instead, or hands on a file whose Sync,
// Close or Read fails, so that each step can be made to fail in turn.
var opened = func(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Manager owns one checkpoint directory. It is not safe for concurrent use;
// the parameter server drives it from its single round loop.
type Manager struct {
	dir   string
	slots [2]slot
	// rec is the buffer every record is encoded into, grown to the largest.
	rec []byte
}

// RecoveryInfo describes where Recover found the state.
type RecoveryInfo struct {
	// File names the file the recovered record was read from ("" when
	// there was none).
	File string
}

// Open prepares dir (creating it if needed), opens both slot files (creating
// them if needed) and fsyncs the directory, so the slots' entries are durable
// before any round relies on them. Open writes no record.
func Open(dir string) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m := &Manager{dir: dir}
	for i, name := range slotNames {
		// The slots are the only files this package writes, each in place:
		// a torn write of one leaves the previous round in the other (an
		// allowlist row of internal/lint's atomicwrite rule).
		f, err := opened(os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_RDWR, 0o644))
		if err != nil {
			return nil, errors.Join(fmt.Errorf("checkpoint: %w", err), m.Close())
		}
		m.slots[i] = f
	}
	if err := syncDir(dir); err != nil {
		return nil, errors.Join(err, m.Close())
	}
	return m, nil
}

// Close releases the slot handles. The Manager is unusable afterwards.
func (m *Manager) Close() error {
	var err error
	for i, f := range m.slots {
		if f != nil {
			err = errors.Join(err, f.Close())
			m.slots[i] = nil
		}
	}
	return err
}

// Recover loads the newest durable state: the highest-round valid record in
// either slot or in a legacy file. Each file is read as a run of records up
// to the first invalid one — a torn or rotted record, or a slot's stale
// tail. Recover writes nothing. It returns a nil snapshot when no file holds
// a valid record — a fresh start, not an error — and an error only when a
// file cannot be read at all.
func (m *Manager) Recover() (*codec.Snapshot, RecoveryInfo, error) {
	if m.slots[0] == nil {
		return nil, RecoveryInfo{}, errClosed
	}
	var best *codec.Snapshot
	var info RecoveryInfo
	for i, name := range append(slotNames[:], legacyNames...) {
		var b []byte
		var err error
		if i < len(m.slots) {
			// A slot is read into the record buffer, which the next
			// AppendRound reuses: nothing of it outlives the decode.
			var size int64
			if size, err = m.slots[i].Seek(0, io.SeekEnd); err == nil && size > 0 {
				m.rec = slices.Grow(m.rec[:0], int(size))[:size]
				b = m.rec
				_, err = m.slots[i].ReadAt(b, 0)
			}
		} else if b, err = readFile(filepath.Join(m.dir, name)); errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("checkpoint: reading %s: %w", name, err)
		}
		for r := bytes.NewReader(b); ; {
			e, _, err := readRecord(r)
			if err != nil || (e.Kind != codec.KindRoundClose && e.Kind != codec.KindSnapshot) {
				break
			}
			if best == nil || e.Snapshot.Round > best.Round {
				best, info.File = e.Snapshot, name
			}
		}
	}
	return best, info, nil
}

// readFile is os.ReadFile through opened.
func readFile(name string) ([]byte, error) {
	f, err := opened(os.Open(name))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(f)
	return b, errors.Join(err, f.Close())
}

// AppendRound durably records the state at the close of one round: its
// record is written over slot s.Round&1 — the slot holding round s.Round-2,
// never the one holding s.Round-1 — and fsync'd before returning. After it
// returns, a crash at any point loses nothing up to and including s.Round.
func (m *Manager) AppendRound(s *codec.Snapshot) error {
	if m.slots[0] == nil {
		return errClosed
	}
	f := m.slots[s.Round&1]
	if err := writeRecord(f, &m.rec, &codec.Envelope{Kind: codec.KindRoundClose, Snapshot: s}); err != nil {
		return fmt.Errorf("checkpoint: writing round %d: %w", s.Round, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteSnapshot is AppendRound: every record is a full snapshot, so there
// is no separate snapshot to write.
func (m *Manager) WriteSnapshot(s *codec.Snapshot) error { return m.AppendRound(s) }

// syncDir fsyncs a directory so the entries created in it survive power
// loss. Some filesystems refuse to fsync directories; that is not a
// durability bug on the filesystems we run tests on, so only real write
// errors surface.
func syncDir(dir string) error {
	d, err := opened(os.Open(dir))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	serr := d.Sync()
	if err := d.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if serr != nil && !errors.Is(serr, errors.ErrUnsupported) {
		return fmt.Errorf("checkpoint: %w", serr)
	}
	return nil
}
