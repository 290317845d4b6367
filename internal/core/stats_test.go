package core

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField: Stats.Add and FloorStats.Add sum every
// numeric counter, so a counter added to either struct without its Add line
// fails here rather than vanishing from the hub aggregate.
func TestStatsAddCoversEveryField(t *testing.T) {
	var st Stats
	fillDistinct(&st)
	assertDoubled(t, st, st.Add(st))

	var fs FloorStats
	fillDistinct(&fs)
	fs.Master = "m"
	sum := fs.Add(fs)
	if sum.Master != "" {
		t.Errorf("FloorStats.Add Master = %q, want empty", sum.Master)
	}
	assertDoubled(t, fs, sum)
}

// fillDistinct sets every integer field of the struct p points to to a
// distinct nonzero value.
func fillDistinct(p any) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.CanInt():
			f.SetInt(int64(i + 1))
		case f.CanUint():
			f.SetUint(uint64(i + 1))
		}
	}
}

// assertDoubled checks that every integer field of sum is twice its value
// in x, and that x has no field of a kind the Add contract does not cover.
func assertDoubled(t *testing.T, x, sum any) {
	t.Helper()
	xv, sv := reflect.ValueOf(x), reflect.ValueOf(sum)
	for i := 0; i < xv.NumField(); i++ {
		name := xv.Type().Name() + "." + xv.Type().Field(i).Name
		switch f := xv.Field(i); {
		case f.CanInt():
			if got, want := sv.Field(i).Int(), 2*f.Int(); got != want {
				t.Errorf("%s: Add gave %d, want %d", name, got, want)
			}
		case f.CanUint():
			if got, want := sv.Field(i).Uint(), 2*f.Uint(); got != want {
				t.Errorf("%s: Add gave %d, want %d", name, got, want)
			}
		case f.Kind() == reflect.String:
		default:
			t.Errorf("%s has kind %v, which this test does not sum", name, f.Kind())
		}
	}
}
