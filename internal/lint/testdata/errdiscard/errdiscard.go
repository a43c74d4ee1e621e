// Package errdiscard is a deliberately-bad fixture for the errdiscard
// analyzer. Every `want` comment is a golden expectation checked by
// internal/lint's golden tests; the unflagged functions pin the sanctioned
// patterns.
package errdiscard

import (
	"errors"
	"fmt"
	"strconv"
)

func step(name string) error {
	if name == "" {
		return errors.New("empty")
	}
	return nil
}

func blankDiscard() {
	_ = step("a") // want "error result discarded with _"
}

func tupleBlank() int {
	n, _ := strconv.Atoi("7") // want "error result discarded with _"
	return n
}

// checked pins the sanctioned pattern: every error is inspected.
func checked() error {
	if err := step("a"); err != nil {
		return err
	}
	err := step("b")
	if err != nil {
		return fmt.Errorf("second step: %w", err)
	}
	return nil
}

// bestEffort demonstrates the escape hatch for genuinely ignorable errors.
func bestEffort() {
	_ = step("teardown") //fedmp:errdiscard-ok — best-effort cleanup
}

// silenced pins that `_ = err` of an existing value is not a finding: only
// fresh call results count.
func silenced() {
	err := step("kept")
	_ = err
}
