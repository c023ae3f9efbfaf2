//go:build !amd64

package main

// l3Bytes is unknown off amd64; the report prints 0.
func l3Bytes() int { return 0 }
