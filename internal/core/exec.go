package core

import (
	"runtime"
	"slices"
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

// netCacheParams bounds a NetCache by the parameter scalars its networks
// hold in total. The budget is small on purpose: a cached network keeps its
// activations and workspaces alive too — several times its parameters for a
// convolutional or recurrent model — every executor has a cache of its own,
// and the collector sizes the heap at twice what is live. 32 Ki scalars keep
// every sub-model shape of a tiny model (where construction is a large share
// of an assignment) and one or two networks of the zoo's (where it is not).
const netCacheParams = 1 << 15

// NetCache keeps the networks one executor — a cohort-training goroutine of
// the simulator, a wire worker — has built, each with its optimiser, keyed
// by Family.NetSignature, so that a steady-state assignment constructs
// nothing: the next sub-model of the same widths reloads a cached network
// (nn.SetWeights overwrites every parameter, batch-norm statistics
// included) and zeroes its optimiser's velocity in place. Least recently
// used networks are dropped once the cache exceeds netCacheParams. A
// NetCache is not safe for concurrent use.
type NetCache struct {
	fam                       Family
	lr, momentum, weightDecay float32
	// entries are ordered least to most recently used.
	entries []*cachedNet
	params  int
	sig     []int
}

type cachedNet struct {
	sig    []int
	net    nn.Network
	opt    *nn.SGD
	params int
}

// NewNetCache returns an empty cache whose optimisers use the given
// hyper-parameters (see nn.NewSGD).
func NewNetCache(fam Family, lr, momentum, weightDecay float32) *NetCache {
	return &NetCache{fam: fam, lr: lr, momentum: momentum, weightDecay: weightDecay}
}

// Get returns a network for desc and its optimiser, in the state a fresh
// Family.BuildNet and nn.NewSGD would train from once the caller has loaded
// the assignment's weights. A description the family cannot reuse networks
// for (NetSignature) gets a fresh pair every time. The pair is valid until
// the next Get.
func (c *NetCache) Get(desc any, seed int64) (nn.Network, *nn.SGD, error) {
	sig, reusable := c.fam.NetSignature(c.sig[:0], desc)
	c.sig = sig
	if reusable {
		for i, e := range c.entries {
			if slices.Equal(e.sig, sig) {
				copy(c.entries[i:], c.entries[i+1:])
				c.entries[len(c.entries)-1] = e
				e.opt.Reset()
				return e.net, e.opt, nil
			}
		}
	}
	net, err := c.fam.BuildNet(desc, seed)
	if err != nil {
		return nil, nil, err
	}
	opt := nn.NewSGD(c.lr, c.momentum, c.weightDecay)
	if !reusable {
		return net, opt, nil
	}
	e := &cachedNet{sig: slices.Clone(sig), net: net, opt: opt, params: nn.ParamCount(net)}
	c.entries = append(c.entries, e)
	c.params += e.params
	for c.params > netCacheParams && len(c.entries) > 1 {
		c.params -= c.entries[0].params
		c.entries = slices.Delete(c.entries, 0, 1)
	}
	return net, opt, nil
}
