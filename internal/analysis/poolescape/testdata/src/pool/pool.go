// Package pool declares the shared scratch pools the fixture's files
// exercise.
package pool

import "sync"

type scratch struct{ buf []byte }

var scratchPool = sync.Pool{
	New: func() any { return new(scratch) },
}

var otherPool = sync.Pool{
	New: func() any { return new(scratch) },
}

var errNegative error

func use(*scratch) {}
