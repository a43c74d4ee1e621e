// Package callgraph exercises the call-graph builder and summary solver:
// direct and mutual recursion, interface dispatch, method values, stored
// function references, and the alloc/wallclock/forever effect leaves the
// unit tests in callgraph_test.go assert on. No want comments — nothing
// here violates a scoped rule.
package callgraph

import "time"

// Worker is a module-defined interface: dispatch over-approximates a call
// through it to every module implementation.
type Worker interface {
	Work(n int) int
}

// A implements Worker without allocating.
type A struct{}

func (A) Work(n int) int { return n + 1 }

// B implements Worker and allocates.
type B struct{ buf []int }

func (b *B) Work(n int) int {
	b.buf = append(b.buf, n)
	return n
}

// C implements Worker with its parameter renamed, D with it blank: dispatch
// matches parameter and result types, never their names.
type C struct{}

func (C) Work(count int) int { return count }

type D struct{}

func (D) Work(_ int) int { return 0 }

// Dispatch calls through the interface: edges to every Work above.
func Dispatch(w Worker, n int) int {
	return w.Work(n)
}

// Joiner has a variadic method and a callback whose own parameter is named.
type Joiner interface {
	Join(parts ...string) string
	Each(fn func(part string))
}

// V implements Joiner under other parameter names, the callback's included.
type V struct{}

func (V) Join(_ ...string) string   { return "" }
func (V) Each(visit func(p string)) {}

// S does not: its Join takes the same []string, but not variadically.
type S struct{}

func (S) Join(parts []string) string { return "" }
func (S) Each(fn func(part string))  {}

// DispatchJoin calls through Joiner: an edge to V.Join only.
func DispatchJoin(j Joiner) string {
	return j.Join("a", "b")
}

// Direct is self-recursive: a one-node SCC with a self edge.
func Direct(n int) int {
	if n == 0 {
		return 0
	}
	return Direct(n - 1)
}

// Even and Odd are mutually recursive: a two-node SCC.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

var hook func() int

// TakeValue stores a function reference: a conservative value-ref edge.
func TakeValue() {
	hook = leaked
}

func leaked() int { return alloc() }

func alloc() int { return len(make([]int, 8)) }

// MethodValue returns a bound method value: a value-ref edge to A.Work.
func MethodValue(a A) func(int) int {
	return a.Work
}

// Spin never returns.
func Spin() {
	for {
	}
}

// Clocky reaches the wall clock through a helper.
func Clocky() int64 { return wallRead() }

func wallRead() int64 { return time.Now().UnixNano() }
