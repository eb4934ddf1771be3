package vtime

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	if got := t0.Add(MS(5)); got != Time(5000) {
		t.Errorf("Add: got %d, want 5000", got)
	}
	if got := Time(7000).Sub(Time(2000)); got != MS(5) {
		t.Errorf("Sub: got %v, want 5ms", got)
	}
	if Infinity.Add(MS(1)) != Infinity {
		t.Error("Infinity.Add should stay Infinity")
	}
	if t0.Add(Forever) != Infinity {
		t.Error("Add(Forever) should be Infinity")
	}
}

func TestMinMax(t *testing.T) {
	if Time(3).Min(Time(5)) != Time(3) || Time(3).Max(Time(5)) != Time(5) {
		t.Error("Time Min/Max broken")
	}
	if MS(3).Min(MS(5)) != MS(3) || MS(3).Max(MS(5)) != MS(5) {
		t.Error("Duration Min/Max broken")
	}
}

func TestConversions(t *testing.T) {
	if MS(20).Milliseconds() != 20 {
		t.Error("Milliseconds round trip")
	}
	if Second.Seconds() != 1 {
		t.Error("Seconds round trip")
	}
	if FromFloatMS(3.2) != US(3200) {
		t.Errorf("FromFloatMS(3.2) = %v", FromFloatMS(3.2))
	}
	if FromFloatMS(0.0005) != US(1) && FromFloatMS(0.0005) != US(0) {
		t.Errorf("FromFloatMS rounding: %v", FromFloatMS(0.0005))
	}
}

func TestScale(t *testing.T) {
	cases := []struct {
		d        Duration
		num, den int64
		want     Duration
	}{
		{MS(10), 1, 2, MS(5)},
		{MS(10), 3, 4, FromFloatMS(7.5)},
		{MS(8), 150, 50, MS(24)},
		{US(1), 1, 3, US(0)}, // rounds to nearest
		{US(2), 1, 3, US(1)},
	}
	for _, c := range cases {
		if got := c.d.Scale(c.num, c.den); got != c.want {
			t.Errorf("%v.Scale(%d,%d) = %v, want %v", c.d, c.num, c.den, got, c.want)
		}
	}
}

func TestCeilDivTable(t *testing.T) {
	cases := []struct {
		a, b Duration
		want int64
	}{
		{0, 10, 0},
		{-5, 10, 0},
		{1, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{20, 10, 2},
		{21, 10, 3},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	if FloorDiv(-1, 10) != 0 || FloorDiv(9, 10) != 0 || FloorDiv(10, 10) != 1 || FloorDiv(19, 10) != 1 {
		t.Error("FloorDiv table broken")
	}
}

func TestCeilFloorRelation(t *testing.T) {
	f := func(a int32, b uint16) bool {
		bb := Duration(b) + 1
		aa := Duration(a)
		c, fl := CeilDiv(aa, bb), FloorDiv(aa, bb)
		if aa <= 0 {
			return c == 0
		}
		if int64(aa)%int64(bb) == 0 {
			return c == fl
		}
		return c == fl+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	if Infinity.String() != "+inf" || Forever.String() != "+inf" {
		t.Error("infinity rendering")
	}
	if MS(1).String() != "1.000ms" {
		t.Errorf("MS(1).String() = %q", MS(1).String())
	}
	if Time(1500).String() != "1.500ms" {
		t.Errorf("Time(1500).String() = %q", Time(1500).String())
	}
}

func TestScalePanicsOnBadDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scale with zero denominator should panic")
		}
	}()
	MS(1).Scale(1, 0)
}

func TestFloorDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FloorDiv with non-positive divisor should panic")
		}
	}()
	FloorDiv(1, 0)
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv with non-positive divisor should panic")
		}
	}()
	CeilDiv(1, -1)
}

func TestBeforeAfter(t *testing.T) {
	if !Time(1).Before(Time(2)) || Time(2).Before(Time(1)) {
		t.Error("Before broken")
	}
}

func TestSecondsHelpers(t *testing.T) {
	if Time(2_000_000).Seconds() != 2 {
		t.Error("Time.Seconds")
	}
	if (2 * Second).Seconds() != 2 {
		t.Error("Duration.Seconds")
	}
	if Time(1500).Milliseconds() != 1.5 {
		t.Error("Time.Milliseconds")
	}
}
