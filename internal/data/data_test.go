package data

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLoadAllDatasets(t *testing.T) {
	for _, id := range []DatasetID{DatasetMNIST, DatasetCIFAR, DatasetEMNIST, DatasetTiny} {
		d, err := Load(id)
		if err != nil {
			t.Fatalf("Load(%s): %v", id, err)
		}
		cfg, _ := ConfigFor(id)
		if d.Classes != cfg.Classes || d.C != cfg.C || d.H != cfg.H || d.W != cfg.W {
			t.Errorf("%s: geometry mismatch", id)
		}
		if len(d.Train) != cfg.TrainSize || len(d.Test) != cfg.TestSize {
			t.Errorf("%s: sizes %d/%d, want %d/%d", id, len(d.Train), len(d.Test), cfg.TrainSize, cfg.TestSize)
		}
		per := d.C * d.H * d.W
		for _, s := range d.Train[:10] {
			if len(s.X) != per {
				t.Fatalf("%s: sample length %d, want %d", id, len(s.X), per)
			}
			if s.Label < 0 || s.Label >= d.Classes {
				t.Fatalf("%s: label %d out of range", id, s.Label)
			}
		}
	}
	if _, err := Load("nope"); err == nil {
		t.Error("Load accepted an unknown id")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := Config{Classes: 4, C: 1, H: 8, W: 8, TrainSize: 50, TestSize: 10, Noise: 0.5, Seed: 9}
	a, b := Generate("a", cfg), Generate("b", cfg)
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Train[i].X {
			if a.Train[i].X[j] != b.Train[i].X[j] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// A nearest-prototype classifier on clean class means should beat
	// chance by a wide margin — the datasets must be learnable.
	cfg := Config{Classes: 5, C: 1, H: 8, W: 8, TrainSize: 500, TestSize: 200, Noise: 0.8, MaxShift: 1, Seed: 3}
	d := Generate("sep", cfg)
	per := d.C * d.H * d.W
	means := make([][]float64, d.Classes)
	counts := make([]int, d.Classes)
	for c := range means {
		means[c] = make([]float64, per)
	}
	for _, s := range d.Train {
		counts[s.Label]++
		for j, v := range s.X {
			means[s.Label][j] += float64(v)
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range d.Test {
		best, bi := math.Inf(1), -1
		for c := range means {
			var dist float64
			for j, v := range s.X {
				dd := float64(v) - means[c][j]
				dist += dd * dd
			}
			if dist < best {
				best, bi = dist, c
			}
		}
		if bi == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(d.Test))
	if acc < 0.5 {
		t.Errorf("nearest-mean accuracy %.2f; dataset not separable enough", acc)
	}
}

func TestPartitionIIDCoversAllSamples(t *testing.T) {
	cfg := Config{Classes: 3, C: 1, H: 4, W: 4, TrainSize: 100, TestSize: 10, Noise: 0.5, Seed: 4}
	d := Generate("p", cfg)
	rng := rand.New(rand.NewSource(1))
	p := PartitionIID(d, 7, rng)
	seen := map[int]bool{}
	total := 0
	for _, shard := range p {
		total += len(shard)
		for _, idx := range shard {
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if total != 100 {
		t.Errorf("IID partition covers %d samples, want 100", total)
	}
	st := PartitionStats(d, p)
	for w, sz := range st.Sizes {
		if sz < 100/7 || sz > 100/7+1 {
			t.Errorf("worker %d shard size %d not balanced", w, sz)
		}
	}
}

func TestPartitionLabelSkew(t *testing.T) {
	cfg := Config{Classes: 5, C: 1, H: 4, W: 4, TrainSize: 1000, TestSize: 10, Noise: 0.5, Seed: 5}
	d := Generate("skew", cfg)
	rng := rand.New(rand.NewSource(2))
	p := PartitionLabelSkew(d, 5, 80, rng)
	st := PartitionStats(d, p)
	for w := range p {
		if st.DominantShare[w] < 0.6 {
			t.Errorf("worker %d dominant share %.2f, want >= 0.6 at skew 80%%", w, st.DominantShare[w])
		}
	}
	// Level 0 must reduce to IID-like balance.
	p0 := PartitionLabelSkew(d, 5, 0, rng)
	st0 := PartitionStats(d, p0)
	for w := range p0 {
		if st0.DominantShare[w] > 0.45 {
			t.Errorf("worker %d dominant share %.2f at skew 0", w, st0.DominantShare[w])
		}
	}
}

func TestPartitionLabelSkewRangePanics(t *testing.T) {
	cfg := Config{Classes: 2, C: 1, H: 2, W: 2, TrainSize: 10, TestSize: 2, Noise: 0.5, Seed: 6}
	d := Generate("x", cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("label skew 101%% did not panic")
		}
	}()
	PartitionLabelSkew(d, 2, 101, rand.New(rand.NewSource(1)))
}

func TestPartitionMissingClasses(t *testing.T) {
	cfg := Config{Classes: 10, C: 1, H: 4, W: 4, TrainSize: 2000, TestSize: 10, Noise: 0.5, Seed: 7}
	d := Generate("miss", cfg)
	rng := rand.New(rand.NewSource(3))
	missing := 3
	p := PartitionMissingClasses(d, 4, missing, rng)
	for w, shard := range p {
		present := map[int]bool{}
		for _, idx := range shard {
			present[d.Train[idx].Label] = true
		}
		absent := 0
		for c := 0; c < d.Classes; c++ {
			if !present[c] {
				absent++
			}
		}
		if absent < missing {
			t.Errorf("worker %d lacks %d classes, want >= %d", w, absent, missing)
		}
	}
}

func TestLoaderCyclesAndBatchSizes(t *testing.T) {
	cfg := Config{Classes: 3, C: 1, H: 4, W: 4, TrainSize: 30, TestSize: 5, Noise: 0.5, Seed: 8}
	d := Generate("ld", cfg)
	rng := rand.New(rand.NewSource(4))
	l := NewLoader(d, []int{0, 1, 2, 3, 4, 5, 6}, 3, rng)
	if l.Len() != 7 {
		t.Errorf("Len = %d", l.Len())
	}
	for i := 0; i < 10; i++ {
		b := l.Next()
		if b.Size() != 3 {
			t.Fatalf("batch %d size %d, want 3", i, b.Size())
		}
		for _, lb := range b.Labels {
			if lb < 0 || lb >= 3 {
				t.Fatalf("bad label %d", lb)
			}
		}
	}
	// Shard smaller than batch size yields the whole shard.
	small := NewLoader(d, []int{1, 2}, 16, rng)
	if b := small.Next(); b.Size() != 2 {
		t.Errorf("small shard batch size %d, want 2", b.Size())
	}
}

func TestTestBatchLimit(t *testing.T) {
	cfg := Config{Classes: 3, C: 2, H: 4, W: 4, TrainSize: 10, TestSize: 20, Noise: 0.5, Seed: 9}
	d := Generate("tb", cfg)
	if b := TestBatch(d, 5); b.Size() != 5 {
		t.Errorf("limited test batch size %d, want 5", b.Size())
	}
	if b := TestBatch(d, 0); b.Size() != 20 {
		t.Errorf("unlimited test batch size %d, want 20", b.Size())
	}
	if b := TestBatch(d, 100); b.Size() != 20 {
		t.Errorf("over-limit test batch size %d, want 20", b.Size())
	}
}

func TestDatasetForModel(t *testing.T) {
	pairs := map[string]DatasetID{
		"cnn": DatasetMNIST, "alexnet": DatasetCIFAR, "vgg": DatasetEMNIST, "resnet": DatasetTiny,
	}
	for m, want := range pairs {
		got, err := DatasetForModel(m)
		if err != nil || got != want {
			t.Errorf("DatasetForModel(%s) = %v, %v", m, got, err)
		}
	}
	if _, err := DatasetForModel("nope"); err == nil {
		t.Error("DatasetForModel accepted an unknown model")
	}
}

func TestCorpusGeneration(t *testing.T) {
	cfg := CorpusConfig{Vocab: 20, Branch: 4, TrainSize: 5000, TestSize: 500, Seed: 11}
	c := GenerateCorpus(cfg)
	if len(c.Train) != 5000 || len(c.Test) != 500 {
		t.Fatalf("corpus sizes %d/%d", len(c.Train), len(c.Test))
	}
	for _, tok := range c.Train[:100] {
		if tok < 0 || tok >= 20 {
			t.Fatalf("token %d out of range", tok)
		}
	}
	opt := c.OptimalPerplexity()
	if opt < 1 || opt > float64(cfg.Vocab) {
		t.Errorf("optimal perplexity %v outside (1, vocab)", opt)
	}
	// Branch=4 with Zipf weights should have perplexity well below vocab.
	if opt > 6 {
		t.Errorf("optimal perplexity %v too high for branch 4", opt)
	}
}

func TestSeqLoaderAndTestBatch(t *testing.T) {
	cfg := CorpusConfig{Vocab: 10, Branch: 3, TrainSize: 1000, TestSize: 200, Seed: 12}
	c := GenerateCorpus(cfg)
	parts := PartitionCorpusIID(c, 4)
	if len(parts) != 4 {
		t.Fatal("wrong partition count")
	}
	rng := rand.New(rand.NewSource(5))
	l := NewSeqLoader(parts[0], 8, 3, rng)
	b := l.Next()
	if len(b.Seq) != 3 {
		t.Fatalf("seq batch size %d", len(b.Seq))
	}
	for _, s := range b.Seq {
		if len(s) != 9 {
			t.Fatalf("sequence length %d, want 9", len(s))
		}
	}
	tb := CorpusTestBatch(c, 8, 5)
	if len(tb.Seq) != 5 {
		t.Errorf("test batch has %d sequences, want 5", len(tb.Seq))
	}
}

// Property: every partition scheme assigns each index at most once, for
// random worker counts and skew levels.
func TestPartitionNoDuplicatesProperty(t *testing.T) {
	cfg := Config{Classes: 6, C: 1, H: 4, W: 4, TrainSize: 600, TestSize: 10, Noise: 0.5, Seed: 13}
	d := Generate("prop", cfg)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		var p Partition
		switch r.Intn(3) {
		case 0:
			p = PartitionIID(d, n, r)
		case 1:
			p = PartitionLabelSkew(d, n, r.Intn(101), r)
		default:
			p = PartitionMissingClasses(d, n, r.Intn(d.Classes), r)
		}
		seen := map[int]bool{}
		for _, shard := range p {
			for _, idx := range shard {
				if idx < 0 || idx >= len(d.Train) || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLoadersRefillOneBatch pins both loaders' steady state: each refills
// its one batch in place — the same header every call, holding exactly what
// MakeBatch assembles, or the stream's subsequences — and allocates nothing
// once warm, a wrap-around reshuffle included.
func TestLoadersRefillOneBatch(t *testing.T) {
	d := Generate("ld", Config{Classes: 3, C: 1, H: 4, W: 4, TrainSize: 30, TestSize: 5, Noise: 0.5, Seed: 8})
	l := NewLoader(d, []int{0, 1, 2, 3, 4, 5, 6}, 3, rand.New(rand.NewSource(4)))
	ref := NewLoader(d, []int{0, 1, 2, 3, 4, 5, 6}, 3, rand.New(rand.NewSource(4)))
	first := l.Next()
	for i := 0; i < 6; i++ {
		if i > 0 {
			if b := l.Next(); b != first {
				t.Fatal("Loader.Next returned a new batch")
			}
		}
		n := ref.batchSize
		if ref.cursor+n > len(ref.indices) {
			ref.shuffle()
		}
		want := MakeBatch(d, ref.indices[ref.cursor:ref.cursor+n])
		ref.cursor += n
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("batch %d: %+v, MakeBatch assembles %+v", i, first, want)
		}
	}
	if got := testing.AllocsPerRun(20, func() { l.Next() }); got != 0 {
		t.Errorf("a warm Loader.Next allocates %v times, want 0", got)
	}

	c := GenerateCorpus(CorpusConfig{Vocab: 10, Branch: 3, TrainSize: 1000, TestSize: 200, Seed: 12})
	sl := NewSeqLoader(PartitionCorpusIID(c, 4)[0], 8, 3, rand.New(rand.NewSource(5)))
	seqFirst := sl.Next()
	if sl.Next() != seqFirst || len(seqFirst.Seq) != 3 || len(seqFirst.Seq[2]) != 9 {
		t.Fatalf("SeqLoader.Next returned a new batch or a wrong shape: %d sequences", len(seqFirst.Seq))
	}
	if got := testing.AllocsPerRun(20, func() { sl.Next() }); got != 0 {
		t.Errorf("a warm SeqLoader.Next allocates %v times, want 0", got)
	}
}
