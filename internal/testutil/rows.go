// Package testutil holds the row comparison shared by the differential
// test suites and the TPC-H validation harness, so every suite enforces
// the same notion of row equality.
package testutil

import (
	"fmt"
	"math"

	"vectorwise/internal/vtypes"
)

// SameRows compares two result sets position by position under
// CloseValue and describes the first difference, or returns nil.
func SameRows(label string, want, got []vtypes.Row) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: row counts differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		match, err := closeRow(label, want[i], got[i])
		if err != nil {
			return err
		}
		if !match {
			return fmt.Errorf("%s: row %d differs: %v vs %v", label, i, want[i], got[i])
		}
	}
	return nil
}

// SameRowsUnordered compares two result sets as multisets under
// CloseValue (sort ties may permute rows; parallel unions reorder
// groups). Quadratic matching — intended for the small result sets of
// the TPC-H suite.
func SameRowsUnordered(label string, want, got []vtypes.Row) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: row counts differ: %d vs %d", label, len(want), len(got))
	}
	used := make([]bool, len(got))
outer:
	for i := range want {
		for j := range got {
			if used[j] {
				continue
			}
			match, err := closeRow(label, want[i], got[j])
			if err != nil {
				return err
			}
			if match {
				used[j] = true
				continue outer
			}
		}
		return fmt.Errorf("%s: row %d (%v) has no match", label, i, want[i])
	}
	return nil
}

// closeRow reports whether two rows agree column by column; rows of
// different arity are an error, not a mismatch.
func closeRow(label string, a, b vtypes.Row) (bool, error) {
	if len(a) != len(b) {
		return false, fmt.Errorf("%s: column counts differ: %d vs %d", label, len(a), len(b))
	}
	for c := range a {
		if !CloseValue(a[c], b[c]) {
			return false, nil
		}
	}
	return true, nil
}

// MatchRows fails the test unless SameRowsUnordered holds. It takes the
// two methods of testing.TB it calls, so the non-test harness importing
// this package does not link package testing.
func MatchRows(t interface {
	Helper()
	Fatal(args ...any)
}, label string, want, got []vtypes.Row) {
	t.Helper()
	if err := SameRowsUnordered(label, want, got); err != nil {
		t.Fatal(err)
	}
}

// CloseValue compares two values with a relative tolerance on floats
// (parallel partial sums reorder float addition).
func CloseValue(a, b vtypes.Value) bool {
	if a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	if a.Kind == vtypes.KindF64 || b.Kind == vtypes.KindF64 {
		af, bf := a.AsFloat(), b.AsFloat()
		diff := math.Abs(af - bf)
		scale := math.Max(math.Abs(af), math.Abs(bf))
		return diff <= 1e-6*math.Max(scale, 1)
	}
	return a.Equal(b)
}
