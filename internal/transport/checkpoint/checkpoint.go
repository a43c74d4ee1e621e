// Package checkpoint is the parameter server's durability layer: a
// full-state snapshot file plus a round-granularity write-ahead log, both
// encoded as wire-codec frames (KindSnapshot / KindRoundClose — same varint
// and tensor-slab format the network uses, so the on-disk state round-trips
// bit-exactly, NaN payloads and negative zeros included). Each on-disk
// record is one frame followed by a CRC-32C of its bytes: the wire leaves
// integrity to TCP, but a disk record must detect bit rot and torn writes
// itself, and the frame format alone cannot — a flipped bit inside a float
// slab still parses.
//
// Layout inside the checkpoint directory:
//
//	snapshot.ckpt      last full snapshot (one KindSnapshot frame)
//	snapshot.prev.ckpt the snapshot before it (corruption fallback)
//	wal.log            KindRoundClose frames appended since the snapshot
//
// Every WAL record carries the complete server state at the close of its
// round, not a diff: replay is "take the last valid record", a torn tail
// costs at most the round that was being written, and recovery never needs
// the snapshot and the WAL to compose. Snapshots exist to keep the WAL
// short — WriteSnapshot persists the state and resets the log.
//
// Crash matrix (see DESIGN.md for the full discussion):
//
//   - crash before AppendRound's fsync: the tail record may be torn;
//     Recover truncates it and resumes from the previous round.
//   - crash mid-WriteSnapshot: the temp file is ignored at recovery; the
//     previous snapshot (under either name) plus the intact WAL still
//     reconstruct the newest round.
//   - crash mid-round: nothing was appended for the open round; it is
//     re-run after recovery.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"fedmp/internal/transport/codec"
)

// castagnoli is the CRC-32C polynomial (hardware-accelerated on the
// platforms we run on).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errChecksum reports a record whose frame parsed but whose trailer CRC did
// not match — bit rot, or a torn write that landed inside valid-looking
// bytes.
var errChecksum = errors.New("checkpoint: record checksum mismatch")

// writeRecord writes one durability record — frame ‖ CRC-32C(frame) — to w
// in a single Write, encoding it into *buf: a grow-only buffer its owner
// keeps between records, so a steady-state record allocates nothing.
func writeRecord(w io.Writer, buf *[]byte, e *codec.Envelope) error {
	rec, err := codec.AppendFrame((*buf)[:0], e)
	if err != nil {
		return err
	}
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, castagnoli))
	*buf = rec
	_, err = w.Write(rec)
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

// File names inside the checkpoint directory.
const (
	snapName = "snapshot.ckpt"
	prevName = "snapshot.prev.ckpt"
	walName  = "wal.log"
	tmpName  = "snapshot.ckpt.tmp"
)

// Manager owns one checkpoint directory. It is not safe for concurrent use;
// the parameter server drives it from its single round loop.
type Manager struct {
	dir string
	wal *os.File
	// rec is the buffer every record is encoded into, grown to the largest.
	rec []byte
}

// RecoveryInfo describes what Recover found and repaired.
type RecoveryInfo struct {
	// SnapshotRound is the round of the snapshot file used (-1 if none).
	SnapshotRound int
	// WALRounds is the number of valid round-close records replayed.
	WALRounds int
	// TornTail reports that the WAL ended in a partial record, which was
	// truncated away (the in-flight round is lost — at most one round).
	TornTail bool
	// UsedFallback reports that snapshot.ckpt was unreadable and the
	// previous snapshot was used instead.
	UsedFallback bool
}

// Open prepares dir (creating it if needed) and opens the WAL for appending.
func Open(dir string) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// The WAL is the one file written in place — append-only, one fsync'd
	// frame per round — so it does not go through writeFileAtomic (an
	// allowlist row of internal/lint's atomicwrite rule).
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Manager{dir: dir, wal: wal}, nil
}

// Close releases the WAL handle. The Manager is unusable afterwards.
func (m *Manager) Close() error {
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	return err
}

// Recover loads the newest durable state: the latest readable snapshot,
// superseded by any newer round-close record replayed from the WAL. A torn
// WAL tail is truncated in place (so subsequent appends extend a valid log);
// a corrupt snapshot.ckpt falls back to snapshot.prev.ckpt. Returns a nil
// snapshot when the directory holds no usable state — a fresh start, not an
// error.
func (m *Manager) Recover() (*codec.Snapshot, RecoveryInfo, error) {
	if m.wal == nil {
		return nil, RecoveryInfo{}, fmt.Errorf("checkpoint: manager is closed")
	}
	info := RecoveryInfo{SnapshotRound: -1}

	snap, err := readSnapshotFile(filepath.Join(m.dir, snapName))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			info.UsedFallback = true
		}
		snap, err = readSnapshotFile(filepath.Join(m.dir, prevName))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			// Both copies exist but neither is readable: the WAL may still
			// carry state, so keep going with no snapshot.
			snap = nil
		}
	}
	if snap != nil {
		info.SnapshotRound = snap.Round
	}

	walSnap, walRounds, torn, err := m.replayWAL()
	if err != nil {
		return nil, info, err
	}
	info.WALRounds = walRounds
	info.TornTail = torn
	if walSnap != nil && (snap == nil || walSnap.Round > snap.Round) {
		snap = walSnap
	}
	return snap, info, nil
}

// replayWAL scans the log, keeping the last valid round-close record. On the
// first malformed frame it truncates the file at the end of the last good
// one and stops: a torn tail loses only the record being written when the
// process died.
func (m *Manager) replayWAL() (last *codec.Snapshot, rounds int, torn bool, err error) {
	if _, err := m.wal.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, fmt.Errorf("checkpoint: %w", err)
	}
	var good int64
	for {
		e, n, err := readRecord(m.wal)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Anything else — a short read, bad magic, a corrupt payload —
			// is the torn tail. Drop it.
			torn = true
			break
		}
		good += int64(n)
		if e.Kind != codec.KindRoundClose {
			// A foreign frame kind in the WAL is corruption, not a tail.
			torn = true
			break
		}
		last = e.Snapshot
		rounds++
	}
	if torn {
		if err := m.wal.Truncate(good); err != nil {
			return nil, 0, true, fmt.Errorf("checkpoint: truncating torn WAL: %w", err)
		}
		if err := m.wal.Sync(); err != nil {
			return nil, 0, true, fmt.Errorf("checkpoint: %w", err)
		}
	}
	if _, err := m.wal.Seek(good, io.SeekStart); err != nil {
		return nil, 0, torn, fmt.Errorf("checkpoint: %w", err)
	}
	return last, rounds, torn, nil
}

// AppendRound durably logs the state at the close of one round: one
// round-close frame appended to the WAL and fsync'd before returning. After
// it returns, a crash at any point loses nothing up to and including
// s.Round.
func (m *Manager) AppendRound(s *codec.Snapshot) error {
	if m.wal == nil {
		return fmt.Errorf("checkpoint: manager is closed")
	}
	if err := writeRecord(m.wal, &m.rec, &codec.Envelope{Kind: codec.KindRoundClose, Snapshot: s}); err != nil {
		return fmt.Errorf("checkpoint: appending round %d: %w", s.Round, err)
	}
	if err := m.wal.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteSnapshot persists a full snapshot and resets the WAL. The snapshot
// becomes durable before the log shrinks, so a crash anywhere in between
// leaves either the new snapshot or the old one plus the intact WAL — never
// less state than before the call.
func (m *Manager) WriteSnapshot(s *codec.Snapshot) error {
	if m.wal == nil {
		return fmt.Errorf("checkpoint: manager is closed")
	}
	cur := filepath.Join(m.dir, snapName)
	// Demote the current snapshot to the fallback slot first; if we crash
	// after this rename the state lives under prevName and recovery finds
	// it there.
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, filepath.Join(m.dir, prevName)); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeFileAtomic(m.dir, tmpName, snapName, &m.rec, s); err != nil {
		return err
	}
	// The snapshot now covers every WAL record; start the log over.
	if err := m.wal.Truncate(0); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := m.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := m.wal.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// writeFileAtomic writes one snapshot frame through the crash-safe sequence:
// temp file in the same directory, fsync, close, rename over the final name,
// fsync the directory so the rename itself is durable. Every state file in
// this package must be written through here (internal/lint's atomicwrite rule
// enforces it).
func writeFileAtomic(dir, tmp, final string, buf *[]byte, s *codec.Snapshot) error {
	tmpPath := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeRecord(f, buf, &codec.Envelope{Kind: codec.KindSnapshot, Snapshot: s}); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return fmt.Errorf("checkpoint: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, final)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so completed renames survive power loss. Some
// filesystems refuse to fsync directories; that is not a durability bug on
// the filesystems we run tests on, so only real write errors surface.
func syncDir(dir string) error {
	d, err := os.Open(dir)
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

// readSnapshotFile reads one KindSnapshot frame, rejecting trailing garbage.
func readSnapshotFile(path string) (snap *codec.Snapshot, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			snap, err = nil, fmt.Errorf("checkpoint: %w", cerr)
		}
	}()
	e, _, err := readRecord(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", filepath.Base(path), err)
	}
	if e.Kind != codec.KindSnapshot {
		return nil, fmt.Errorf("checkpoint: %s holds a kind-%d frame, not a snapshot", filepath.Base(path), e.Kind)
	}
	var extra [1]byte
	if _, rerr := f.Read(extra[:]); rerr != io.EOF {
		return nil, fmt.Errorf("checkpoint: %s has trailing bytes after the snapshot", filepath.Base(path))
	}
	return e.Snapshot, nil
}
