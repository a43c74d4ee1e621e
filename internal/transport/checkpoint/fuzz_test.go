package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fedmp/internal/transport/codec"
)

// FuzzRecover puts arbitrary bytes in both slots and recovers them.
// Recover must not panic, must not fail on bytes it can read (a slot that
// holds no valid record is a lost round, not an error), must return nothing
// or a round no higher than the highest one the seeds hold — a record it did
// not find is invented state — and must write nothing: no write or fsync to
// either slot, no file in the directory. The slots are held in memory behind
// the Manager's slot seam, since every file a test creates, fsyncs and
// removes costs tens of milliseconds on a filesystem that discards freed
// blocks; TestCrashPointOracle and TestRecoversLegacyLayout read real files.
// The seeds are valid slot pairs, torn and stale-tailed slots, and the files
// of the snapshot + WAL fixtures.
func FuzzRecover(f *testing.F) {
	rec := func(r int) []byte { return record(f, codec.KindRoundClose, bigSnapshot(r, 64)) }
	const highest = 4 // the highest round any seed holds
	r1, r2, r3, r4 := rec(1), rec(2), rec(3), rec(4)
	f.Add(r4, r3)
	f.Add(r2, r1)
	f.Add(r4[:len(r4)/2], r3)
	f.Add(slices.Concat(r2[:40], r4[40:]), r1)
	f.Add(slices.Concat(r4, r2[len(r4)-8:]), []byte{})
	// Every file of the checkpoint directories under ../testdata, which an
	// earlier binary wrote in the snapshot + WAL layout.
	fixtures, err := filepath.Glob(filepath.Join("..", "testdata", "ckpt-*", "*"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no checkpoint fixtures (%v)", err)
	}
	for _, path := range fixtures {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, r1)
		f.Add(r2, b)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, slot0, slot1 []byte) {
		in := [2][]byte{slices.Clone(slot0), slices.Clone(slot1)}
		m := &Manager{dir: dir}
		for i, b := range [][]byte{slot0, slot1} {
			m.slots[i] = readOnlySlot{bytes.NewReader(b), t}
		}
		s, info, err := m.Recover()
		if err != nil {
			t.Fatalf("Recover failed on readable slots: %v", err)
		}
		if s != nil && (s.Round > highest || !slices.Contains(slotNames[:], info.File)) {
			t.Fatalf("recovered round %d from %q; the seeds hold no round above %d", s.Round, info.File, highest)
		}
		if s == nil && info.File != "" {
			t.Fatalf("nothing recovered, yet from %q", info.File)
		}
		if !bytes.Equal(in[0], slot0) || !bytes.Equal(in[1], slot1) {
			t.Fatal("Recover changed a slot's bytes")
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) > 0 {
			t.Fatalf("Recover left %d files in the directory (%v)", len(ents), err)
		}
	})
}

// readOnlySlot serves fixed bytes and fails the test on a write or fsync.
type readOnlySlot struct {
	*bytes.Reader
	t *testing.T
}

func (s readOnlySlot) WriteAt([]byte, int64) (int, error) {
	s.t.Fatal("Recover wrote to a slot")
	return 0, nil
}

func (s readOnlySlot) Sync() error {
	s.t.Fatal("Recover fsynced a slot")
	return nil
}

func (readOnlySlot) Close() error { return nil }
