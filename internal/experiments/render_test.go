package experiments

import (
	"bytes"
	"io"
	"testing"
)

// renderTwice renders one experiment twice at Quick scale and fails unless
// both renderings are byte-identical. Map iteration order differs between
// the two runs, so any report that depends on it shows up here.
func renderTwice[R any](t *testing.T, fn func(Scale, io.Writer) (R, error)) {
	t.Helper()
	var a, b bytes.Buffer
	if _, err := fn(Quick(), &a); err != nil {
		t.Fatal(err)
	}
	if _, err := fn(Quick(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("rendered output differs between runs:\n--- first ---\n%s\n--- second ---\n%s", a.String(), b.String())
	}
}

func TestRandomnessRenderDeterministic(t *testing.T) { renderTwice(t, Randomness) }

func TestReceiverZooRenderDeterministic(t *testing.T) { renderTwice(t, ReceiverZoo) }
