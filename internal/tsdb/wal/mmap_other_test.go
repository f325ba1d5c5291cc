//go:build !unix

package wal

// unmap has nothing to release where segments are read into the heap.
func unmap(*Log) {}
