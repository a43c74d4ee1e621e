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

//go:noescape
func addToAVX(dst, src *float32, n uintptr)

//go:noescape
func subIntoAVX(dst, a, b *float32, n uintptr)

//go:noescape
func addRowSumsAVX(dst, rows *float32, cols, width, nrows uintptr)

//go:noescape
func lstmCellAVX(c, fg, cPrev, ig, gg *float32, n uintptr)

//go:noescape
func lstmHiddenAVX(h, out, o, tc *float32, n uintptr)

//go:noescape
func lstmGateGradsAVX(dz, db, gates, dout, dhNext, dcNext, tanhC, cPrev, dcPrev *float32, h, n uintptr)

//go:noescape
func clipAVX(xs *float32, n uintptr, lo, hi float32)

//go:noescape
func argMaxAVX(xs *float32, n uintptr) uintptr

//go:noescape
func subWidenAVX(dst *float64, src *float32, n uintptr, s float32)

//go:noescape
func divNarrowScaleAVX(dst *float32, src *float64, n uintptr, d float64, s float32)
