//go:build unix

package wal

import "syscall"

// unmap releases the mappings of an abandoned log's segments, which the
// log itself never does (mmapFile says why). A fuzz target that opens
// thousands of directories would otherwise keep every one of them
// mapped until the process exits. Nothing may read the log's store
// afterwards.
func unmap(l *Log) {
	for _, s := range l.segs {
		if s.mapped {
			syscall.Munmap(s.data)
		}
	}
}
