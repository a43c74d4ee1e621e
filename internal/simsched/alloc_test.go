//go:build !race

package simsched

import (
	"testing"

	"fedmp/internal/testfd"
)

// allocTable is the scheduler's allocation inventory: once the heap's backing
// array has grown to the working set, pushing and popping events must not
// allocate (testfd.AllocTable runs it).
var allocTable = []testfd.AllocRow{
	{Fns: []any{(*Scheduler).Pop, (*Scheduler).push, (*Scheduler).siftUp, (*Scheduler).siftDown}, By: TestSteadyStatePushPopAllocFree},
}

func TestAllocTable(t *testing.T) { testfd.AllocTable(t, allocTable) }
