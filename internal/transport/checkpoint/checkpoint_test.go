package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
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

// bigSnapshot is testSnapshot(r) with one more tensor of n dense values, so
// its record spans several 4 KiB pages and its size can differ by round.
func bigSnapshot(r, n int) *codec.Snapshot {
	s := testSnapshot(r)
	extra := tensor.New(n)
	for i := range extra.Data {
		extra.Data[i] = float32(i%97) + float32(r)/8
	}
	s.Global = append(s.Global, extra)
	return s
}

// record returns the bytes writeRecord puts on disk for s under kind.
func record(t testing.TB, kind codec.Kind, s *codec.Snapshot) []byte {
	t.Helper()
	var f memFile
	var buf []byte
	if err := writeRecord(&f, &buf, &codec.Envelope{Kind: kind, Snapshot: s}); err != nil {
		t.Fatal(err)
	}
	return f
}

// memFile is an in-memory io.WriterAt.
type memFile []byte

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(*m) {
		*m = append(*m, make([]byte, end-len(*m))...)
	}
	return copy((*m)[off:], p), nil
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// recoverDir opens dir, recovers it and closes it, as a restarted PS would.
func recoverDir(t *testing.T, dir string) (*codec.Snapshot, RecoveryInfo) {
	t.Helper()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, info, err := m.Recover()
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return s, info
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
	if s != nil || info.File != "" {
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
	if info.File != "round.1.ckpt" {
		t.Fatalf("recovered round 5 from %q, want round.1.ckpt", info.File)
	}

	// The rounds keep alternating after a recovery.
	if err := m.AppendRound(testSnapshot(6)); err != nil {
		t.Fatal(err)
	}
	s, info, err = m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, s, 6)
	if info.File != "round.0.ckpt" {
		t.Fatalf("recovered round 6 from %q, want round.0.ckpt", info.File)
	}
}

// TestWriteSnapshotIsAppendRound pins the on-disk layout: WriteSnapshot and
// AppendRound put the same KindRoundClose record at the start of the slot of
// the round's parity, and however many rounds are written the directory
// holds the two slot files and nothing else.
func TestWriteSnapshotIsAppendRound(t *testing.T) {
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
	for r := 1; r <= 6; r++ {
		write := m.AppendRound
		if r%3 == 0 {
			write = m.WriteSnapshot
		}
		if err := write(testSnapshot(r)); err != nil {
			t.Fatal(err)
		}
		files := readDir(t, dir)
		if len(files) != 2 {
			t.Fatalf("after round %d the directory holds %d files, want the 2 slots", r, len(files))
		}
		want := record(t, codec.KindRoundClose, testSnapshot(r))
		if got := files[fmt.Sprintf("round.%d.ckpt", r%2)]; !bytes.HasPrefix(got, want) {
			t.Fatalf("round %d: slot %d does not start with the round's record", r, r%2)
		}
	}
}

// TestCrashPointOracle enumerates crashes of a slot write. The slots hold
// rounds r-2 and r-1; round r's write goes over the slot of r-2 and is cut
// at every 4 KiB boundary and at 16 seeded offsets (what is on disk is the
// new record's head followed by the old bytes), and then single bits of the
// completed slot are flipped. Recovery must return round r-1 for a torn or
// flipped record, r for an intact one — never an error, never an older
// round.
func TestCrashPointOracle(t *testing.T) {
	for _, r := range []int{4, 5} {
		t.Run(fmt.Sprint("round", r), func(t *testing.T) { crashOracle(t, r) })
	}
}

func crashOracle(t *testing.T, r int) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Round r-2's record is the longest, so round r's write over it leaves
	// stale bytes behind its CRC.
	for _, s := range []*codec.Snapshot{bigSnapshot(r-2, 6000), bigSnapshot(r-1, 4000)} {
		if err := m.AppendRound(s); err != nil {
			t.Fatal(err)
		}
	}
	pre := readDir(t, dir)
	if err := m.AppendRound(bigSnapshot(r, 4000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	post := readDir(t, dir)
	var name string
	for n, b := range post {
		if !bytes.Equal(b, pre[n]) {
			if name != "" {
				t.Fatalf("round %d's write changed both %s and %s", r, name, n)
			}
			name = n
		}
	}
	if len(post) != len(pre) || name == "" {
		t.Fatalf("round %d's write left %d files (was %d) and changed %q", r, len(post), len(pre), name)
	}
	old, img := pre[name], post[name]
	rec := len(record(t, codec.KindRoundClose, bigSnapshot(r, 4000)))

	expect := func(what string, b []byte, want int) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _ := recoverDir(t, dir)
		if s == nil {
			t.Fatalf("%s: nothing recovered, want round %d", what, want)
		}
		if !bytes.Equal(record(t, codec.KindRoundClose, s), record(t, codec.KindRoundClose, bigSnapshot(want, 4000))) {
			t.Fatalf("%s: recovered round %d, want round %d bit for bit", what, s.Round, want)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(r), 7))
	var cuts []int
	for c := 0; c < rec; c += 4096 {
		cuts = append(cuts, c)
	}
	for range 16 {
		cuts = append(cuts, rng.IntN(rec))
	}
	for _, c := range cuts {
		torn := append(img[:c:c], old[min(c, len(old)):]...)
		expect(fmt.Sprintf("write cut at byte %d of %d", c, rec), torn, r-1)
	}
	expect("whole write", img, r)
	if len(img) <= rec {
		t.Fatalf("slot holds %d bytes for a %d-byte record: no stale tail to test", len(img), rec)
	}
	for i := range 16 {
		at, want := rng.IntN(rec), r-1 // inside the record
		if i%2 == 1 {
			at, want = rec+rng.IntN(len(img)-rec), r // in the stale tail
		}
		flipped := slices.Clone(img)
		flipped[at] ^= 1 << rng.IntN(8)
		expect(fmt.Sprintf("bit flipped at byte %d", at), flipped, want)
	}
}

// TestRecoversLegacyLayout: the snapshot.ckpt, snapshot.prev.ckpt and
// wal.log the snapshot + WAL layout wrote are still read, each as a run of
// records, and the highest round across them and the slots wins. Recover
// changes none of them. (TestRecoversParentCheckpoint resumes a directory an
// earlier binary wrote.)
func TestRecoversLegacyLayout(t *testing.T) {
	rotten := record(t, codec.KindSnapshot, testSnapshot(8))
	rotten[len(rotten)/2] ^= 0x10
	snapshotAndLog := map[string][]byte{
		"snapshot.ckpt": record(t, codec.KindSnapshot, testSnapshot(2)),
		"wal.log": slices.Concat(record(t, codec.KindRoundClose, testSnapshot(3)),
			record(t, codec.KindRoundClose, testSnapshot(4)), []byte("torn")),
	}
	for _, c := range []struct {
		name  string
		files map[string][]byte
		slots []int // rounds written through the Manager
		round int
		from  string
	}{
		{"rotten snapshot, previous one", map[string][]byte{
			"snapshot.ckpt":      rotten,
			"snapshot.prev.ckpt": record(t, codec.KindSnapshot, testSnapshot(6)),
		}, nil, 6, "snapshot.prev.ckpt"},
		{"snapshot under a longer log", snapshotAndLog, nil, 4, "wal.log"},
		{"slots past the log", snapshotAndLog, []int{5, 6}, 6, "round.0.ckpt"},
	} {
		dir := t.TempDir()
		for name, b := range c.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.slots {
			if err := m.AppendRound(testSnapshot(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		before := readDir(t, dir)
		s, info := recoverDir(t, dir)
		if s == nil || s.Round != c.round || info.File != c.from {
			t.Fatalf("%s: recovered %v from %q, want round %d from %s", c.name, s, info.File, c.round, c.from)
		}
		checkSnapshot(t, s, c.round)
		if after := readDir(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Errorf("%s: Recover changed the directory", c.name)
		}
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

// spySlot wraps a slot file, counting the writes and fsyncs the Manager
// asks of it and refusing them when told to.
type spySlot struct {
	slot
	writes, syncs           int
	offset                  int64
	refuseWrite, refuseSync bool
}

var errRefused = errors.New("refused")

func (s *spySlot) WriteAt(p []byte, off int64) (int, error) {
	s.writes++
	s.offset = off
	if s.refuseWrite {
		return 0, errRefused
	}
	return s.slot.WriteAt(p, off)
}

func (s *spySlot) Sync() error {
	s.syncs++
	if s.refuseSync {
		return errRefused
	}
	return s.slot.Sync()
}

// spy opens a Manager on a fresh directory with both slots wrapped.
func spy(t *testing.T) (*Manager, [2]*spySlot) {
	t.Helper()
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Error(err)
		}
	})
	var spies [2]*spySlot
	for i := range spies {
		spies[i] = &spySlot{slot: m.slots[i]}
		m.slots[i] = spies[i]
	}
	return m, spies
}

// TestAppendRoundWritesOneSlotOnce: each round is one write, at offset 0,
// and one fsync, both of the slot of its parity; the other slot is not
// touched.
func TestAppendRoundWritesOneSlotOnce(t *testing.T) {
	m, spies := spy(t)
	for r := 1; r <= 4; r++ {
		if err := m.AppendRound(testSnapshot(r)); err != nil {
			t.Fatal(err)
		}
		for i, s := range spies {
			want := (r + i) / 2 // rounds of parity i so far
			if s.writes != want || s.syncs != want || s.offset != 0 {
				t.Fatalf("after round %d slot %d saw %d writes and %d fsyncs (last at offset %d), want %d and %d at 0",
					r, i, s.writes, s.syncs, s.offset, want, want)
			}
		}
	}
}

// TestAppendRoundReportsWALWriteError: a round record its slot refuses —
// the write or the fsync — fails AppendRound, so the server does not count
// an undurable round as durable.
func TestAppendRoundReportsWALWriteError(t *testing.T) {
	for _, refuse := range []string{"write", "fsync"} {
		m, spies := spy(t)
		for _, s := range spies {
			s.refuseWrite, s.refuseSync = refuse == "write", refuse == "fsync"
		}
		for r := 1; r <= 2; r++ {
			if err := m.AppendRound(testSnapshot(r)); !errors.Is(err, errRefused) {
				t.Errorf("round %d: AppendRound with the %s refused returned %v", r, refuse, err)
			}
		}
	}
}

// TestRecoverSurfacesUnreadableWAL: a checkpoint file that cannot be read —
// a slot whose handle fails, or a legacy log whose read fails — fails
// Recover instead of reading as a fresh start, which would rerun a schedule
// whose rounds are already durable.
func TestRecoverSurfacesUnreadableWAL(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRound(testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	// Close a handle under the manager: every read of that slot fails.
	if err := m.slots[1].Close(); err != nil {
		t.Fatal(err)
	}
	if s, _, err := m.Recover(); err == nil {
		t.Fatalf("recovered %+v from a slot that cannot be read", s)
	}
	if err := m.slots[0].Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	withSeam(dir, []string{"read wal.log"}, func() {
		m, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		if s, _, err := m.Recover(); err == nil {
			t.Fatalf("recovered %+v from a log that cannot be read", s)
		}
	})
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty directory accepted")
	}
}

// TestAppendRoundReusesRecordBuffer pins the steady state: once the
// Manager's record buffer has held a round's record, writing the next
// allocates nothing — no record buffer, no frame copy — and the last record
// so written is recovered.
func TestAppendRoundReusesRecordBuffer(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := testSnapshot(1)
	s.Global = append(s.Global, tensor.New(4096)) // a record well past any fixed overhead
	s.Global[2].Data[100] = 3
	if err := m.AppendRound(s); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		s.Round++
		if err := m.AppendRound(s); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("AppendRound allocates %.1f objects per record in steady state, want 0", avg)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := recoverDir(t, dir); got == nil || got.Round != s.Round {
		t.Fatalf("recovered %v, want round %d", got, s.Round)
	}
}

// writeCounter records each WriteAt it is handed.
type writeCounter struct {
	writes  [][]byte
	offsets []int64
}

func (w *writeCounter) WriteAt(p []byte, off int64) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.offsets = append(w.offsets, off)
	return len(p), nil
}

// TestWriteRecordIsOneWrite pins the record format and its single write: the
// frame and its CRC-32C go to the writer in one WriteAt at offset 0, and the
// record reads back through readRecord.
func TestWriteRecordIsOneWrite(t *testing.T) {
	var w writeCounter
	var buf []byte
	for r := 1; r <= 2; r++ {
		if err := writeRecord(&w, &buf, &codec.Envelope{Kind: codec.KindRoundClose, Snapshot: testSnapshot(r)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.writes) != 2 || w.offsets[0] != 0 || w.offsets[1] != 0 {
		t.Fatalf("two records took %d writes at offsets %v, want 2 at 0", len(w.writes), w.offsets)
	}
	for r, rec := range w.writes {
		var frame bytes.Buffer
		if _, err := codec.WriteFrame(&frame, &codec.Envelope{Kind: codec.KindRoundClose, Snapshot: testSnapshot(r + 1)}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec[:len(rec)-4], frame.Bytes()) {
			t.Fatalf("record %d does not start with its frame", r+1)
		}
		e, n, err := readRecord(bytes.NewReader(rec))
		if err != nil || n != len(rec) {
			t.Fatalf("record %d reads back as %d of %d bytes: %v", r+1, n, len(rec), err)
		}
		checkSnapshot(t, e.Snapshot, r+1)
	}
}
