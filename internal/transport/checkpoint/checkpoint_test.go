package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"fedmp/internal/bandit"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// testSnapshot builds a snapshot for round r whose payload exercises the
// encodings that must survive bit-exactly: NaN, infinities, negative zero,
// a sparse tensor, and per-worker bandit state.
func testSnapshot(r int) *codec.Snapshot {
	g := tensor.FromSlice([]float32{
		1.5, float32(math.NaN()), float32(math.Inf(1)),
		float32(math.Copysign(0, -1)), -2.25, float32(r),
	}, 2, 3)
	sparse := tensor.New(40)
	sparse.Data[3] = float32(math.Inf(-1))
	sparse.Data[17] = 0.5
	return &codec.Snapshot{
		Round:     r,
		Global:    []*tensor.Tensor{g, sparse},
		PrevLoss:  math.NaN(),
		RoundSum:  float64(r) * 1.25,
		PrevTimes: []float64{1, 2, math.Inf(1)},
		PrevComm:  []float64{0.5, math.Copysign(0, -1), 0.25},
		Workers: []codec.WorkerState{
			{Slot: 0, ID: "id-a", Name: "w0", Ratio: 0.4, Bandit: &bandit.State{
				Kind: "eucb", Round: r,
				Regions: []bandit.Region{{Lo: 0, Hi: 0.8}},
				Pulls:   []bandit.PullRecord{{Round: 1, Ratio: 0.3, Reward: math.NaN()}},
			}},
			{Slot: 1, Name: "w1", Ratio: 0.8},
		},
	}
}

// f32BitsEqual compares float32 slices by bit pattern.
func f32BitsEqual(t *testing.T, what string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values, want %d", what, len(b), len(a))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: value %d is %x, want %x", what, i, math.Float32bits(b[i]), math.Float32bits(a[i]))
		}
	}
}

// checkSnapshot verifies the recovered snapshot is the bit-exact state for
// round r.
func checkSnapshot(t *testing.T, s *codec.Snapshot, r int) {
	t.Helper()
	if s == nil {
		t.Fatal("no snapshot recovered")
	}
	if s.Round != r {
		t.Fatalf("recovered round %d, want %d", s.Round, r)
	}
	want := testSnapshot(r)
	if len(s.Global) != len(want.Global) {
		t.Fatalf("%d global tensors, want %d", len(s.Global), len(want.Global))
	}
	for i := range want.Global {
		f32BitsEqual(t, "global tensor", want.Global[i].Data, s.Global[i].Data)
	}
	if math.Float64bits(s.PrevLoss) != math.Float64bits(want.PrevLoss) {
		t.Fatalf("PrevLoss bits %x, want NaN", math.Float64bits(s.PrevLoss))
	}
	for i := range want.PrevComm {
		if math.Float64bits(s.PrevComm[i]) != math.Float64bits(want.PrevComm[i]) {
			t.Fatalf("PrevComm[%d] lost bits", i)
		}
	}
	if len(s.Workers) != 2 || s.Workers[0].ID != "id-a" || s.Workers[0].Bandit == nil {
		t.Fatalf("worker table mangled: %+v", s.Workers)
	}
	if got := s.Workers[0].Bandit.Pulls[0].Reward; !math.IsNaN(got) {
		t.Fatalf("bandit NaN reward decoded as %v", got)
	}
}

// reopen closes m and opens the directory again, as a restarted PS would.
func reopen(t *testing.T, m *Manager, dir string) *Manager {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

func TestSnapshotAndWALRecovery(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh directory: nothing to recover, not an error.
	s, info, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if s != nil || info.SnapshotRound != -1 || info.WALRounds != 0 || info.UsedFallback {
		t.Fatalf("fresh dir recovered %+v / %+v", s, info)
	}

	if err := m.WriteSnapshot(testSnapshot(2)); err != nil {
		t.Fatal(err)
	}
	for r := 3; r <= 5; r++ {
		if err := m.AppendRound(testSnapshot(r)); err != nil {
			t.Fatal(err)
		}
	}

	m = reopen(t, m, dir)
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s, info, err = m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, s, 5)
	if info.SnapshotRound != 2 || info.WALRounds != 3 || info.TornTail || info.UsedFallback {
		t.Fatalf("recovery info %+v", info)
	}

	// The WAL keeps extending cleanly after a recovery.
	if err := m.AppendRound(testSnapshot(6)); err != nil {
		t.Fatal(err)
	}
	s, _, err = m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, s, 6)
}

func TestWriteSnapshotResetsWAL(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for r := 1; r <= 4; r++ {
		if err := m.AppendRound(testSnapshot(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteSnapshot(testSnapshot(4)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("WAL holds %d bytes after a snapshot, want 0", st.Size())
	}
	s, info, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, s, 4)
	if info.SnapshotRound != 4 || info.WALRounds != 0 {
		t.Fatalf("recovery info %+v", info)
	}
}

func TestTornWALTailLosesAtMostOneRound(t *testing.T) {
	for _, cut := range []int64{1, 7, 40} { // mid-header and mid-payload tears
		dir := t.TempDir()
		m, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 3; r++ {
			if err := m.AppendRound(testSnapshot(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		// Tear the tail: chop the last record short, as a crash mid-write
		// would.
		wal := filepath.Join(dir, "wal.log")
		st, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(wal, st.Size()-cut); err != nil {
			t.Fatal(err)
		}

		m, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, info, err := m.Recover()
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, s, 2) // round 3's record was torn; 1 and 2 survive
		if !info.TornTail || info.WALRounds != 2 {
			t.Fatalf("cut %d: recovery info %+v", cut, info)
		}

		// The truncated log accepts new appends and recovers them.
		if err := m.AppendRound(testSnapshot(3)); err != nil {
			t.Fatal(err)
		}
		s, info, err = m.Recover()
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, s, 3)
		if info.TornTail {
			t.Fatalf("cut %d: tail still torn after repair: %+v", cut, info)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptSnapshotFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshot(testSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshot(testSnapshot(7)); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the current snapshot's payload.
	snap := filepath.Join(dir, "snapshot.ckpt")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	m = reopen(t, m, dir)
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s, info, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, s, 3)
	if !info.UsedFallback || info.SnapshotRound != 3 {
		t.Fatalf("recovery info %+v", info)
	}
}

func TestCorruptSnapshotWithNewerWAL(t *testing.T) {
	// Even with both snapshot copies gone, WAL records carry full state.
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := m.AppendRound(testSnapshot(9)); err != nil {
		t.Fatal(err)
	}
	s, info, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, s, 9)
	if info.SnapshotRound != -1 || info.WALRounds != 1 {
		t.Fatalf("recovery info %+v", info)
	}
}

func TestClosedManagerRefusesWork(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := m.AppendRound(testSnapshot(1)); err == nil {
		t.Error("append on a closed manager accepted")
	}
	if err := m.WriteSnapshot(testSnapshot(1)); err == nil {
		t.Error("snapshot on a closed manager accepted")
	}
	if _, _, err := m.Recover(); err == nil {
		t.Error("recover on a closed manager accepted")
	}
}

// TestRecoverSurfacesUnreadableWAL: a log that cannot be read fails Recover
// instead of reading as a fresh start, which would rerun a schedule whose
// rounds are already durable.
func TestRecoverSurfacesUnreadableWAL(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRound(testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	// Close the handle under the manager: every seek and read of the log fails.
	if err := m.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if s, _, err := m.Recover(); err == nil {
		t.Fatalf("recovered %+v from a log that cannot be read", s)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty directory accepted")
	}
}
