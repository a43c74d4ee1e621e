// Portable float-slab copies for big-endian (or unrecognised) targets: the
// wire format is little-endian regardless of host order, so each element is
// moved through explicit Float32bits byte assembly. Still reflection-free;
// only the single memmove of floats_le.go is lost.

//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package codec

import (
	"encoding/binary"
	"math"
)

// putF32s writes src as little-endian float32s into dst, which must hold at
// least 4*len(src) bytes.
func putF32s(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getF32s fills dst from little-endian float32 bytes in src, which must hold
// at least 4*len(dst) bytes.
func getF32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
