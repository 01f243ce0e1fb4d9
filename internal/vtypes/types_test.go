package vtypes

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindI64: "BIGINT", KindF64: "DOUBLE", KindStr: "VARCHAR",
		KindBool: "BOOLEAN", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestStorageClass(t *testing.T) {
	if KindDate.StorageClass() != ClassI64 {
		t.Fatal("dates must share the int64 storage class")
	}
	if KindI64.StorageClass() != ClassI64 || KindF64.StorageClass() != ClassF64 ||
		KindStr.StorageClass() != ClassStr || KindBool.StorageClass() != ClassBool {
		t.Fatal("storage class mapping broken")
	}
	if KindInvalid.StorageClass() != ClassInvalid {
		t.Fatal("invalid kind must map to invalid class")
	}
}

func TestNumeric(t *testing.T) {
	if !KindI64.Numeric() || !KindF64.Numeric() || KindStr.Numeric() || KindDate.Numeric() {
		t.Fatal("Numeric() wrong")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: KindI64},
		Column{Name: "b", Kind: KindStr, Nullable: true},
		Column{Name: "c", Kind: KindF64},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.ColIndex("b") != 1 || s.ColIndex("zz") != -1 {
		t.Fatal("ColIndex wrong")
	}
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Col(0).Name != "c" || p.Col(1).Name != "a" {
		t.Fatalf("Project wrong: %v", p)
	}
	c := s.Clone()
	c.Cols[0].Name = "changed"
	if s.Col(0).Name != "a" {
		t.Fatal("Clone must deep-copy columns")
	}
	want := "(a BIGINT, b VARCHAR NULL, c DOUBLE)"
	if s.String() != want {
		t.Fatalf("String() = %q, want %q", s.String(), want)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{I64Value(-42), "-42"},
		{F64Value(2.5), "2.5"},
		{StrValue("hi"), "hi"},
		{BoolValue(true), "true"},
		{BoolValue(false), "false"},
		{DateValue(0), "1970-01-01"},
		{NullValue(KindI64), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if I64Value(1).Compare(I64Value(2)) != -1 || I64Value(2).Compare(I64Value(1)) != 1 ||
		I64Value(3).Compare(I64Value(3)) != 0 {
		t.Fatal("int compare wrong")
	}
	if F64Value(1.5).Compare(F64Value(2.5)) != -1 {
		t.Fatal("float compare wrong")
	}
	if StrValue("a").Compare(StrValue("b")) != -1 {
		t.Fatal("string compare wrong")
	}
	if BoolValue(false).Compare(BoolValue(true)) != -1 {
		t.Fatal("bool compare wrong")
	}
	// NULLs sort first and equal each other.
	if NullValue(KindI64).Compare(I64Value(0)) != -1 ||
		I64Value(0).Compare(NullValue(KindI64)) != 1 ||
		NullValue(KindI64).Compare(NullValue(KindI64)) != 0 {
		t.Fatal("null ordering wrong")
	}
}

func TestValueCoercions(t *testing.T) {
	if I64Value(7).AsFloat() != 7.0 || F64Value(7.9).AsFloat() != 7.9 {
		t.Fatal("AsFloat wrong")
	}
	if F64Value(7.9).AsInt() != 7 || I64Value(7).AsInt() != 7 {
		t.Fatal("AsInt wrong")
	}
}

func TestRowHashDistinguishes(t *testing.T) {
	a := Row{I64Value(1), StrValue("x")}
	b := Row{I64Value(1), StrValue("y")}
	c := Row{I64Value(1), StrValue("x")}
	if a.Hash() != c.Hash() {
		t.Fatal("equal rows must hash equal")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("hash collision on trivially different rows (suspicious)")
	}
	// Field-boundary confusion check: ("ab","c") vs ("a","bc").
	x := Row{StrValue("ab"), StrValue("c")}
	y := Row{StrValue("a"), StrValue("bc")}
	if x.Hash() == y.Hash() {
		t.Fatal("row hash must delimit string fields")
	}
	// Null vs zero must differ.
	n := Row{NullValue(KindI64)}
	z := Row{I64Value(0)}
	if n.Hash() == z.Hash() {
		t.Fatal("NULL must not hash like zero")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{I64Value(1)}
	c := r.Clone()
	c[0] = I64Value(9)
	if r[0].I64 != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestDateRoundtripKnown(t *testing.T) {
	cases := []struct {
		s    string
		days int64
	}{
		{"1970-01-01", 0},
		{"1970-01-02", 1},
		{"1969-12-31", -1},
		{"2000-02-29", 11016},
		{"1998-12-01", 10561},
	}
	for _, c := range cases {
		got, err := ParseDate(c.s)
		if err != nil {
			t.Fatalf("ParseDate(%q): %v", c.s, err)
		}
		if got != c.days {
			t.Errorf("ParseDate(%q) = %d, want %d", c.s, got, c.days)
		}
		if back := FormatDate(c.days); back != c.s {
			t.Errorf("FormatDate(%d) = %q, want %q", c.days, back, c.s)
		}
	}
}

func TestDateMatchesTimePackage(t *testing.T) {
	// Cross-check the civil-days conversion against the stdlib over a
	// wide range of dates (every 97 days over ~60 years).
	base := time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)
	for d := int64(-4000); d < 20000; d += 97 {
		tm := base.AddDate(0, 0, int(d))
		want := DaysFromCivil(tm.Year(), int(tm.Month()), tm.Day())
		if want != d {
			t.Fatalf("DaysFromCivil(%v) = %d, want %d", tm, want, d)
		}
		y, m, dd := CivilFromDays(d)
		if y != tm.Year() || m != int(tm.Month()) || dd != tm.Day() {
			t.Fatalf("CivilFromDays(%d) = %d-%d-%d, want %v", d, y, m, dd, tm)
		}
	}
}

func TestDateRoundtripProperty(t *testing.T) {
	f := func(n int32) bool {
		d := int64(n % 100000)
		y, m, dd := CivilFromDays(d)
		return DaysFromCivil(y, m, dd) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseDateErrors(t *testing.T) {
	for _, bad := range []string{"", "1998-1-01", "19981201", "1998/12/01", "1998-13-01", "1998-00-10", "1998-12-40", "abcd-ef-gh"} {
		if _, err := ParseDate(bad); err == nil {
			t.Errorf("ParseDate(%q) should fail", bad)
		}
	}
}

func TestYear(t *testing.T) {
	if Year(MustParseDate("1995-06-17")) != 1995 {
		t.Fatal("Year wrong")
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseDate should panic on bad input")
		}
	}()
	MustParseDate("nope")
}

// TestAppendDateMatchesSprintf: the byte formatter spells every day from
// 0001-01-01 to 9999-12-31, and years outside that range — negative ones
// keeping their sign inside the width ("-001") — exactly as the
// "%04d-%02d-%02d" it replaced.
func TestAppendDateMatchesSprintf(t *testing.T) {
	old := func(days int64) string {
		y, m, d := CivilFromDays(days)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	}
	buf := []byte("x")
	check := func(days int64) {
		buf = AppendDate(buf[:1], days)
		if want := old(days); string(buf[1:]) != want || FormatDate(days) != want {
			t.Fatalf("day %d: AppendDate %q, FormatDate %q, want %q", days, buf[1:], FormatDate(days), want)
		}
	}
	for d := DaysFromCivil(1, 1, 1); d <= DaysFromCivil(9999, 12, 31); d++ {
		check(d)
	}
	for _, y := range []int{-123456, -10000, -9999, -1000, -999, -100, -99, -10, -9, -1, 0, 10000, 12345, 999999} {
		for _, md := range [][2]int{{1, 1}, {2, 29}, {12, 31}} {
			check(DaysFromCivil(y, md[0], md[1]))
		}
	}
}
