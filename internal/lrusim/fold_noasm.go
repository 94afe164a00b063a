//go:build !amd64

package lrusim

const foldAsm = false

func foldEmitsAVX2(emits []Emission, sum, min []float64)          { panic("lrusim: no asm kernel") }
func tailEmitsAVX2(emits []Emission, to, ts []float64, h []int64) { panic("lrusim: no asm kernel") }

const gapAsm = false

func foldGapsAVX512(gaps []Emission, bound []int32, cnt []int64, sum, min []float64) {
	panic("lrusim: no asm kernel")
}
func tailGapsAVX512(gaps []Emission, bound []int32, to, ts []float64, h []int64) {
	panic("lrusim: no asm kernel")
}
