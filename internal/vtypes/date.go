package vtypes

import (
	"fmt"
	"math"
)

// Dates are stored as int64 days since the Unix epoch (1970-01-01).
// The conversion uses Howard Hinnant's civil-days algorithm, which is
// exact over the whole proleptic Gregorian calendar and needs no
// time.Time (keeping the storage class a plain integer, as X100 does).

// mathFloat64bits is a tiny indirection so value.go does not import math
// twice in documentation examples.
func mathFloat64bits(f float64) uint64 { return math.Float64bits(f) }

// DaysFromCivil converts a civil date to days since 1970-01-01.
func DaysFromCivil(y int, m int, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	var era int64
	if yy >= 0 {
		era = yy / 400
	} else {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift epoch to 1970-01-01
}

// CivilFromDays converts days since 1970-01-01 back to a civil date.
func CivilFromDays(z int64) (y int, m int, d int) {
	z += 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// ParseDate parses "YYYY-MM-DD" into days since epoch.
func ParseDate(s string) (int64, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("vtypes: invalid date %q (want YYYY-MM-DD)", s)
	}
	num := func(sub string) (int, error) {
		n := 0
		for i := 0; i < len(sub); i++ {
			c := sub[i]
			if c < '0' || c > '9' {
				return 0, fmt.Errorf("vtypes: invalid date %q", s)
			}
			n = n*10 + int(c-'0')
		}
		return n, nil
	}
	y, err := num(s[0:4])
	if err != nil {
		return 0, err
	}
	m, err := num(s[5:7])
	if err != nil {
		return 0, err
	}
	d, err := num(s[8:10])
	if err != nil {
		return 0, err
	}
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("vtypes: out-of-range date %q", s)
	}
	return DaysFromCivil(y, m, d), nil
}

// MustParseDate is ParseDate that panics on malformed input; used for
// compile-time-constant dates in tests and the TPC-H generator.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders days-since-epoch as "YYYY-MM-DD".
func FormatDate(days int64) string {
	y, m, d := CivilFromDays(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// Year returns the calendar year of a date, vectorizable as an integer
// primitive (used by TPC-H Q7/Q8/Q9-style EXTRACT).
func Year(days int64) int64 {
	y, _, _ := CivilFromDays(days)
	return int64(y)
}
