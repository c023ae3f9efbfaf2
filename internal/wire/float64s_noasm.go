//go:build !amd64 || purego

package wire

// putFloat64s writes xs into dst as big-endian bit patterns; without
// assembly it is the portable loop.
func putFloat64s(dst []byte, xs []float64) { putFloat64sGeneric(dst, xs) }
