package codec

import "sync"

// The decoder's payload buffers come from a size-classed sync.Pool arena
// mirroring tensor.Pool: decode reads the payload into a pooled []byte and
// parses out of it. Buffers travel inside a recycled *frameBuf wrapper so
// the steady-state Get/Put cycle allocates nothing. Encoding keeps a
// grow-only frame buffer in its pooled encoder instead (frame.go).

// frameBuf is a pooled byte buffer. b has exactly the requested length; its
// backing array is rounded up to the size class.
type frameBuf struct {
	b     []byte
	class int
}

// bufClasses covers power-of-two size classes from 2^bufMinShift up to
// 2^(bufMinShift+bufClasses-1) bytes (512 B .. 256 MiB ≥ MaxFrame).
// Requests above the largest class are allocated directly and not recycled.
const (
	bufMinShift = 9
	bufClasses  = 20
)

var bufPool [bufClasses]sync.Pool

// bufClassFor returns the smallest size class holding n bytes, or -1 when n
// exceeds the largest class.
func bufClassFor(n int) int {
	size := 1 << bufMinShift
	for c := 0; c < bufClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// getBuf returns a scratch buffer whose b slice has length n. Contents are
// unspecified (buffers are not cleared on reuse).
func getBuf(n int) *frameBuf {
	c := bufClassFor(n)
	if c < 0 {
		return &frameBuf{b: make([]byte, n), class: -1}
	}
	if v := bufPool[c].Get(); v != nil {
		f := v.(*frameBuf)
		f.b = f.b[:n]
		return f
	}
	return &frameBuf{b: make([]byte, n, 1<<(bufMinShift+c)), class: c}
}

// putBuf returns a buffer to its class; the caller must not retain f.b.
func putBuf(f *frameBuf) {
	if f.class < 0 {
		return
	}
	f.b = f.b[:cap(f.b)]
	bufPool[f.class].Put(f)
}
