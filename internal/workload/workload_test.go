package workload

import (
	"strings"
	"testing"
)

func TestGeneratorsProduceValidRows(t *testing.T) {
	gens := []Generator{
		NewIoT(10, 1),
		NewClickstream(100, 50, 2),
		NewSyslog(8, 3),
	}
	for _, g := range gens {
		t.Run(g.Name(), func(t *testing.T) {
			for i := 0; i < 1000; i++ {
				row := g.Next()
				if err := g.Schema().Validate(row); err != nil {
					t.Fatalf("row %d invalid: %v", i, err)
				}
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := NewIoT(5, 42), NewIoT(5, 42)
	for i := 0; i < 100; i++ {
		ra, rb := a.Next(), b.Next()
		for j := range ra {
			if !ra[j].Equal(rb[j]) {
				t.Fatalf("row %d differs at column %d: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}
	c := NewIoT(5, 43)
	same := true
	for i := 0; i < 20; i++ {
		ra, rc := a.Next(), c.Next()
		for j := range ra {
			if !ra[j].Equal(rc[j]) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestIoTDeviceNamesBounded(t *testing.T) {
	g := NewIoT(3, 1)
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		seen[g.Next()[0].AsString()] = true
	}
	if len(seen) != 3 {
		t.Errorf("saw %d devices, want 3", len(seen))
	}
	for d := range seen {
		if !strings.HasPrefix(d, "sensor-") {
			t.Errorf("odd device name %q", d)
		}
	}
}

func TestClickstreamSkew(t *testing.T) {
	g := NewClickstream(1000, 1000, 4)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[g.Next()[1].AsString()]++
	}
	// Zipf: the single hottest URL should dominate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Errorf("hottest URL got %d/5000 hits; expected strong skew", max)
	}
}

func TestSyslogSeverityDistribution(t *testing.T) {
	g := NewSyslog(4, 5)
	var chatty, serious int
	for i := 0; i < 5000; i++ {
		sev := g.Next()[1].AsInt()
		if sev < 0 || sev > 7 {
			t.Fatalf("severity %d out of range", sev)
		}
		if sev >= 6 {
			chatty++
		}
		if sev <= 3 {
			serious++
		}
	}
	if chatty < 3500 {
		t.Errorf("chatty fraction %d/5000 too low", chatty)
	}
	if serious > 500 {
		t.Errorf("serious fraction %d/5000 too high", serious)
	}
}

func TestGeneratorPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { NewIoT(0, 1) },
		func() { NewClickstream(0, 5, 1) },
		func() { NewClickstream(5, 0, 1) },
		func() { NewSyslog(0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
