package comm

import (
	"reflect"
	"testing"
	"time"

	"dss/internal/stats"
)

// fillCounters sets every int64 leaf of v (walked through structs and
// arrays) to a distinct value drawn from *next, returning the count set.
func fillCounters(v reflect.Value, next *int64) int {
	switch v.Kind() {
	case reflect.Int64:
		v.SetInt(*next)
		*next++
		return 1
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += fillCounters(v.Index(i), next)
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += fillCounters(v.Field(i), next)
		}
		return n
	default:
		panic("stats.Counters holds a non-int64 leaf: " + v.Type().String())
	}
}

// TestAllgatherReportRoundTrip pins the stats wire format: every counter
// field of every PE, set to a distinct value, must arrive in the gathered
// report unchanged — so a counter added to stats.Counters can never be
// silently dropped or misplaced by the serialization.
func TestAllgatherReportRoundTrip(t *testing.T) {
	const p = 3
	want := make([]*stats.PE, p)
	reports := make([]*stats.Report, p)
	m := New(p)
	err := m.Run(func(c *Comm) error {
		pe := &stats.PE{Rank: c.Rank()}
		// Distinct across fields and PEs, with high bytes and signs set.
		next := -int64(c.Rank()+1) << 40
		if n := fillCounters(reflect.ValueOf(&pe.Counters).Elem(), &next); n < 9 {
			t.Errorf("walked only %d counters", n)
		}
		want[c.Rank()] = pe
		c.st.Counters = pe.Counters
		// No open wall span: the snapshot must be exactly the values set.
		c.phaseStart = time.Time{}
		reports[c.Rank()] = AllgatherReport(c, stats.DefaultModel(), 50)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range reports {
		if !reflect.DeepEqual(rep.PEs, want) {
			t.Fatalf("PE %d: gathered counters differ from the originals:\ngot  %+v\nwant %+v", r, rep.PEs, want)
		}
	}
}
