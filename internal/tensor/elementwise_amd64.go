//go:build amd64

package tensor

// The avx2 tier's kernels of the element-wise passes (elementwise.go;
// contracts in elementwise_amd64.s).

//go:noescape
func reluAVX(dst, src *float32, n uintptr)

//go:noescape
func reluGradAVX(dx, dy, y *float32, n uintptr)

//go:noescape
func maxPool2x2AVX(out *float32, arg *int32, in *float32, rows, outW uintptr)

//go:noescape
func maxPool2x2GradAVX(dx, dy *float32, arg *int32, rows, outW uintptr)

//go:noescape
func addBiasAVX(y, bias *float32, c, area uintptr)

//go:noescape
func addBiasGradAVX(db, dy *float32, c, area uintptr)

//go:noescape
func sgdStepAVX(w, grad, v *float32, n uintptr, lr, mom, wd float32)
