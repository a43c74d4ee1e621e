// Package lint holds the repository's static checks: the few invariants a
// test cannot see, because breaking them changes no output on the machine
// that runs the tests (DESIGN.md §7). TestRepoLintsClean type-checks every
// non-test package of the module and of benchmark/ and runs each rule of the
// table TestLint holds to its examples over them;
// `make lint-mutants` plants each bug of testdata/mutants.json on a scratch
// copy and records whether the build, vet, the tests, the race detector or
// a rule notices it.
package lint
