package engine_test

import (
	"reflect"
	"testing"

	"timedice/internal/engine"
)

// TestCounterRowsCoverFields pins CounterRows as the one declaration of the
// Counters fields: every row's accessor reaches exactly one int64-kind field,
// every int64-kind field is reached by exactly one row, and row names are
// unique. A new Counters field without a row fails here.
func TestCounterRowsCoverFields(t *testing.T) {
	typ := reflect.TypeOf(engine.Counters{})
	hits := make([]int, typ.NumField())
	names := map[string]bool{}
	for _, row := range engine.CounterRows {
		if names[row.Name] {
			t.Errorf("row name %q is declared twice", row.Name)
		}
		names[row.Name] = true
		var c engine.Counters
		*row.Field(&c) = 0x5eed
		v, changed := reflect.ValueOf(c), 0
		for i := range typ.NumField() {
			if !v.Field(i).IsZero() {
				hits[i]++
				changed++
			}
		}
		if changed != 1 {
			t.Errorf("row %q sets %d fields, want 1", row.Name, changed)
		}
	}
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() == reflect.Int64 && hits[i] != 1 {
			t.Errorf("Counters.%s is reached by %d rows, want 1", f.Name, hits[i])
		}
	}
}
