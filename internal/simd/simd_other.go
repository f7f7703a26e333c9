//go:build !amd64

package simd

// detect: off amd64 there are no assembly tiles, only the pure-Go ones.
func detect() Tier { return Go }
