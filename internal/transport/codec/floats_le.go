// On little-endian architectures a float32 slab's in-memory representation
// is already the wire representation, so the hot copy between tensor data
// and frame buffers is a single memmove through an unsafe reinterpretation —
// no per-element byte shuffling, and certainly no reflection.

//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package codec

import "unsafe"

// putF32s writes src as little-endian float32s into dst, which must hold at
// least 4*len(src) bytes.
func putF32s(dst []byte, src []float32) {
	if len(src) == 0 {
		return
	}
	copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*4))
}

// getF32s fills dst from little-endian float32 bytes in src, which must hold
// at least 4*len(dst) bytes.
func getF32s(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*4), src)
}
