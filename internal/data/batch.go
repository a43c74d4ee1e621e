package data

import (
	"fmt"
	"math/rand"
	"slices"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// Loader draws minibatches from one worker's shard of a dataset. Each worker
// in a simulation owns one Loader over its partition indices.
type Loader struct {
	ds        *Dataset
	indices   []int
	batchSize int
	rng       *rand.Rand
	cursor    int
	// batch is the one batch Next refills.
	batch nn.Batch
}

// NewLoader constructs a loader over the given sample indices. The index
// order is reshuffled every epoch using rng.
func NewLoader(ds *Dataset, indices []int, batchSize int, rng *rand.Rand) *Loader {
	if batchSize <= 0 {
		panic(fmt.Sprintf("data: batch size %d", batchSize))
	}
	if len(indices) == 0 {
		panic("data: NewLoader with empty shard")
	}
	own := append([]int(nil), indices...)
	l := &Loader{ds: ds, indices: own, batchSize: batchSize, rng: rng}
	l.shuffle()
	return l
}

// Len returns the shard size.
func (l *Loader) Len() int { return len(l.indices) }

func (l *Loader) shuffle() {
	l.rng.Shuffle(len(l.indices), func(a, b int) {
		l.indices[a], l.indices[b] = l.indices[b], l.indices[a]
	})
	l.cursor = 0
}

// Next returns the next minibatch, wrapping (with a reshuffle) at the end of
// the shard. The batch may be smaller than the configured size only when the
// shard itself is smaller. It is the loader's one batch, refilled in place by
// the next call.
func (l *Loader) Next() *nn.Batch {
	n := l.batchSize
	if n > len(l.indices) {
		n = len(l.indices)
	}
	if l.cursor+n > len(l.indices) {
		l.shuffle()
	}
	idxs := l.indices[l.cursor : l.cursor+n]
	l.cursor += n
	return fillBatch(&l.batch, l.ds, idxs)
}

// MakeBatch assembles samples at the given indices into an nn.Batch.
func MakeBatch(ds *Dataset, idxs []int) *nn.Batch { return fillBatch(new(nn.Batch), ds, idxs) }

// fillBatch assembles samples at the given indices into b, re-dimensioning
// its buffers in place (tensor.Ensure), and returns it.
func fillBatch(b *nn.Batch, ds *Dataset, idxs []int) *nn.Batch {
	if len(idxs) == 0 {
		panic("data: MakeBatch with no indices")
	}
	per := ds.C * ds.H * ds.W
	b.X = tensor.Ensure(b.X, len(idxs), ds.C, ds.H, ds.W)
	b.Labels = slices.Grow(b.Labels[:0], len(idxs))[:len(idxs)]
	for i, idx := range idxs {
		s := ds.Train[idx]
		copy(b.X.Data[i*per:(i+1)*per], s.X)
		b.Labels[i] = s.Label
	}
	return b
}

// TestBatch assembles up to limit test samples (all when limit <= 0) into
// one evaluation batch.
func TestBatch(ds *Dataset, limit int) *nn.Batch {
	n := len(ds.Test)
	if limit > 0 && limit < n {
		n = limit
	}
	per := ds.C * ds.H * ds.W
	b := &nn.Batch{
		X:      tensor.New(n, ds.C, ds.H, ds.W),
		Labels: make([]int, n),
	}
	for i := 0; i < n; i++ {
		copy(b.X.Data[i*per:(i+1)*per], ds.Test[i].X)
		b.Labels[i] = ds.Test[i].Label
	}
	return b
}
