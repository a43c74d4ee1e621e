package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fedmp/internal/nn"
)

// executors is the number of goroutines shard spreads n calls over.
func executors(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n), 1)
}

// shard calls fn(exec, i) for every i in [0, n), spread over executors(n)
// goroutines that steal indices from a shared counter; exec numbers the
// calling goroutine, so fn can keep per-executor scratch. With one executor
// the calls run inline, in index order. fn may write only state owned by
// index i or by executor exec — results land at their index, which is what
// makes the merged outcome identical to the serial loop whatever the
// interleaving. shard returns once every call has.
func shard(n int, fn func(exec, i int)) {
	par := executors(n)
	if par == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for exec := 0; exec < par; exec++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(exec, i)
			}
		}()
	}
	wg.Wait()
}

// LocalNet is one executor's network and optimiser — a cohort goroutine's, a
// wire worker's, an evaluation shard's — re-dimensioned in place for each
// description (nn.Network.Reshape), so that once built an assignment
// constructs nothing, whatever its widths. It is not safe for concurrent use.
type LocalNet struct {
	fam                       Family
	lr, momentum, weightDecay float32
	net                       nn.Network
	opt                       *nn.SGD
	reusable                  bool
	widths                    []int
	chunk                     nn.Batch // evaluation's sub-batch header
}

// NewLocalNet returns an empty LocalNet; its optimisers are nn.NewSGD's.
func NewLocalNet(fam Family, lr, momentum, weightDecay float32) *LocalNet {
	return &LocalNet{fam: fam, lr: lr, momentum: momentum, weightDecay: weightDecay}
}

// Get returns the network for desc and its optimiser, in the state a fresh
// Family.BuildNet and nn.NewSGD would train from once the caller has loaded
// the weights (nn.SetWeights overwrites every parameter; SGD.Reset zeroes the
// velocity). It builds — seed reaching BuildNet — the first time, after a
// description that is not reusable (Family.NetWidths) and when Reshape
// refuses the widths. The pair is valid until the next Get.
func (l *LocalNet) Get(desc any, seed int64) (nn.Network, *nn.SGD, error) {
	widths, reusable := l.fam.NetWidths(l.widths[:0], desc)
	l.widths = widths
	if reusable && l.reusable && l.net.Reshape(widths) {
		l.opt.Reset()
		return l.net, l.opt, nil
	}
	net, err := l.fam.BuildNet(desc, seed)
	if err != nil {
		return nil, nil, err
	}
	l.net, l.opt, l.reusable = net, nn.NewSGD(l.lr, l.momentum, l.weightDecay), reusable
	return l.net, l.opt, nil
}
