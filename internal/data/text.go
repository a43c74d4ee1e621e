package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fedmp/internal/nn"
)

// Corpus is a synthetic token stream standing in for Penn TreeBank. Tokens
// are drawn from a random first-order Markov chain; the chain's conditional
// entropy lower-bounds achievable perplexity, so an LSTM trained on the
// corpus shows the same perplexity-over-time dynamics Table IV of the paper
// measures.
type Corpus struct {
	// Vocab is the token alphabet size.
	Vocab int
	// Train and Test are token streams.
	Train, Test []int
	// trans holds the generator's transition distribution, kept for the
	// entropy diagnostic.
	trans [][]float64
}

// CorpusConfig controls synthetic corpus generation.
type CorpusConfig struct {
	Vocab int
	// Branch is the number of plausible successors per token; smaller
	// values make the stream more predictable (lower optimal perplexity).
	Branch    int
	TrainSize int
	TestSize  int
	Seed      int64
}

// DefaultCorpusConfig matches the scaled LSTM configuration in the zoo.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{Vocab: 80, Branch: 6, TrainSize: 60000, TestSize: 8000, Seed: 105}
}

// GenerateCorpus builds a Markov-chain corpus deterministically from cfg.
func GenerateCorpus(cfg CorpusConfig) *Corpus {
	if cfg.Vocab < 2 || cfg.Branch < 1 || cfg.Branch > cfg.Vocab {
		panic(fmt.Sprintf("data: invalid corpus config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	trans := make([][]float64, cfg.Vocab)
	for s := range trans {
		row := make([]float64, cfg.Vocab)
		// Choose Branch successors with Zipf-ish weights.
		perm := rng.Perm(cfg.Vocab)
		var total float64
		for k := 0; k < cfg.Branch; k++ {
			w := 1 / float64(k+1)
			row[perm[k]] = w
			total += w
		}
		for j := range row {
			row[j] /= total
		}
		trans[s] = row
	}
	c := &Corpus{Vocab: cfg.Vocab, trans: trans}
	c.Train = c.sample(rng, cfg.TrainSize)
	c.Test = c.sample(rng, cfg.TestSize)
	return c
}

func (c *Corpus) sample(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	state := rng.Intn(c.Vocab)
	for i := range out {
		out[i] = state
		state = c.next(rng, state)
	}
	return out
}

func (c *Corpus) next(rng *rand.Rand, state int) int {
	u := rng.Float64()
	var acc float64
	for j, p := range c.trans[state] {
		acc += p
		if u < acc {
			return j
		}
	}
	return c.Vocab - 1
}

// OptimalPerplexity returns exp of the chain's conditional entropy — the
// perplexity a perfect model of the source would achieve. Useful as the
// floor in experiment reports.
func (c *Corpus) OptimalPerplexity() float64 {
	// Stationary distribution approximated by empirical train frequencies.
	counts := make([]float64, c.Vocab)
	for _, t := range c.Train {
		counts[t]++
	}
	var entropy float64
	total := float64(len(c.Train))
	for s, row := range c.trans {
		ps := counts[s] / total
		if ps == 0 {
			continue
		}
		var h float64
		for _, p := range row {
			if p > 0 {
				h -= p * math.Log(p)
			}
		}
		entropy += ps * h
	}
	return math.Exp(entropy)
}

// SeqPartition assigns contiguous stretches of the training stream to
// workers (contiguity preserves the Markov structure within a shard).
type SeqPartition [][]int

// PartitionCorpusIID splits the train stream into n contiguous shards.
func PartitionCorpusIID(c *Corpus, n int) SeqPartition {
	if n <= 0 {
		panic(fmt.Sprintf("data: PartitionCorpusIID with %d workers", n))
	}
	per := len(c.Train) / n
	parts := make(SeqPartition, n)
	for w := 0; w < n; w++ {
		parts[w] = c.Train[w*per : (w+1)*per]
	}
	return parts
}

// SeqLoader draws fixed-length subsequences from one worker's token stream.
type SeqLoader struct {
	stream    []int
	seqLen    int
	batchSize int
	rng       *rand.Rand
	// batch is the one batch Next refills.
	batch nn.Batch
}

// NewSeqLoader constructs a loader producing batches of batchSize sequences
// of seqLen+1 tokens each (input plus shifted target).
func NewSeqLoader(stream []int, seqLen, batchSize int, rng *rand.Rand) *SeqLoader {
	if len(stream) < seqLen+2 {
		panic(fmt.Sprintf("data: stream of %d tokens too short for seqLen %d", len(stream), seqLen))
	}
	if batchSize <= 0 {
		panic("data: non-positive sequence batch size")
	}
	return &SeqLoader{stream: stream, seqLen: seqLen, batchSize: batchSize, rng: rng}
}

// Next returns the next random batch of subsequences: the loader's one
// batch, refilled in place by the next call.
func (l *SeqLoader) Next() *nn.Batch {
	b := &l.batch
	b.Seq = slices.Grow(b.Seq[:0], l.batchSize)[:l.batchSize]
	maxStart := len(l.stream) - l.seqLen - 1
	for i := range b.Seq {
		start := l.rng.Intn(maxStart + 1)
		b.Seq[i] = l.stream[start : start+l.seqLen+1]
	}
	return b
}

// CorpusTestBatch builds a deterministic evaluation batch of up to limit
// non-overlapping test subsequences.
func CorpusTestBatch(c *Corpus, seqLen, limit int) *nn.Batch {
	var seqs [][]int
	for start := 0; start+seqLen+1 <= len(c.Test); start += seqLen + 1 {
		seqs = append(seqs, c.Test[start:start+seqLen+1])
		if limit > 0 && len(seqs) >= limit {
			break
		}
	}
	if len(seqs) == 0 {
		panic("data: test stream too short for one sequence")
	}
	return &nn.Batch{Seq: seqs}
}
