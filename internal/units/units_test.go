package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		tm  Time
		sec float64
		ms  float64
	}{
		{0, 0, 0},
		{Microsecond, 1e-6, 1e-3},
		{Millisecond, 1e-3, 1},
		{Second, 1, 1000},
		{Minute, 60, 60000},
		{Hour, 3600, 3.6e6},
		{Day, 86400, 8.64e7},
	}
	for _, c := range cases {
		if got := c.tm.Seconds(); got != c.sec {
			t.Errorf("%d.Seconds() = %g, want %g", c.tm, got, c.sec)
		}
		if got := c.tm.Milliseconds(); got != c.ms {
			t.Errorf("%d.Milliseconds() = %g, want %g", c.tm, got, c.ms)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := FromSeconds(0.0000005); got != 1 { // rounds to nearest µs
		t.Errorf("FromSeconds(0.5µs) = %d, want 1", got)
	}
	if got := FromMilliseconds(25.7); got != 25700 {
		t.Errorf("FromMilliseconds(25.7) = %d, want 25700", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		tm   Time
		want string
	}{
		{500, "500µs"},
		{25700, "25.7ms"},
		{1600 * Millisecond, "1.6s"},
		{90 * Second, "1.5min"},
		{2 * Hour, "2h"},
		{-Second, "-1s"},
		{math.MaxInt64, "2.56e+09h"},
		{math.MinInt64, "-2.56e+09h"},
	}
	for _, c := range cases {
		if got := c.tm.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.tm, got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{512, "512B"},
		{KB, "1KB"},
		{64 * KB, "64KB"},
		{10 * MB, "10MB"},
		{3 * GB, "3GB"},
		{-KB, "-1KB"},
		{math.MaxInt64, "8.59e+09GB"},
		{math.MinInt64, "-8.59e+09GB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Max(Time(3), Time(5)) != 5 || Max(Time(5), Time(3)) != 5 {
		t.Error("Max wrong")
	}
	if Min(Time(3), Time(5)) != 3 || Min(Time(5), Time(3)) != 3 {
		t.Error("Min wrong")
	}
}

func TestTransferTime(t *testing.T) {
	// 75 KB at 75 KB/s is one second.
	if got := TransferTime(75*KB, 75); got != Second {
		t.Errorf("TransferTime(75KB, 75) = %v, want 1s", got)
	}
	// Zero bandwidth means instantaneous (byte-addressable idealization).
	if got := TransferTime(MB, 0); got != 0 {
		t.Errorf("TransferTime with 0 bandwidth = %v, want 0", got)
	}
	if got := TransferTime(0, 100); got != 0 {
		t.Errorf("TransferTime of 0 bytes = %v, want 0", got)
	}
}

func TestBandwidthKBs(t *testing.T) {
	if got := BandwidthKBs(75*KB, Second); got != 75 {
		t.Errorf("BandwidthKBs(75KB, 1s) = %g, want 75", got)
	}
	if got := BandwidthKBs(KB, 0); got != 0 {
		t.Errorf("BandwidthKBs with zero time = %g, want 0", got)
	}
}

// TestTransferBandwidthRoundTrip checks that converting bytes→time→bandwidth
// recovers the bandwidth within rounding error.
func TestTransferBandwidthRoundTrip(t *testing.T) {
	f := func(sizeKB uint16, rate uint16) bool {
		if sizeKB == 0 || rate == 0 {
			return true
		}
		size := Bytes(sizeKB) * KB
		kbs := float64(rate)
		d := TransferTime(size, kbs)
		got := BandwidthKBs(size, d)
		return math.Abs(got-kbs)/kbs < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Bytes }{
		{0, 512, 0},
		{1, 512, 1},
		{512, 512, 1},
		{513, 512, 2},
		{1024, 512, 2},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1, 0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

// TestCeilDivProperty: result×b is the smallest multiple of b that is ≥ a.
func TestCeilDivProperty(t *testing.T) {
	f := func(a uint32, b uint16) bool {
		if b == 0 {
			return true
		}
		av, bv := Bytes(a), Bytes(b)
		q := CeilDiv(av, bv)
		return q*bv >= av && (q == 0 || (q-1)*bv < av)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
