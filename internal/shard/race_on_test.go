//go:build race

package shard_test

// raceEnabled reports a -race build, under which sync.Pool deliberately
// drops a quarter of its Puts: allocation guards over pooled buffers do
// not hold there.
const raceEnabled = true
