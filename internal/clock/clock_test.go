package clock

import (
	"sync"
	"testing"
)

func TestVirtualZeroValue(t *testing.T) {
	var v Virtual
	if got := v.Now(); got != 0 {
		t.Fatalf("zero Virtual.Now() = %v, want 0", got)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual(5)
	if got := v.Now(); got != 5 {
		t.Fatalf("Now() = %v, want 5", got)
	}
	if got := v.Advance(3); got != 8 {
		t.Fatalf("Advance(3) = %v, want 8", got)
	}
	if got := v.Advance(0); got != 8 {
		t.Fatalf("Advance(0) = %v, want 8", got)
	}
	if got := v.Now(); got != 8 {
		t.Fatalf("Now() = %v, want 8", got)
	}
}

func TestVirtualSet(t *testing.T) {
	v := NewVirtual(2)
	v.Set(10)
	if got := v.Now(); got != 10 {
		t.Fatalf("Now() = %v, want 10", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	v.Set(3)
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual(0)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				v.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := v.Now(); got != workers*per {
		t.Fatalf("Now() = %v, want %d", got, workers*per)
	}
}

func TestFixed(t *testing.T) {
	f := Fixed(42)
	if got := f.Now(); got != 42 {
		t.Fatalf("Fixed.Now() = %v, want 42", got)
	}
}

func TestTickString(t *testing.T) {
	if got := Tick(7).String(); got != "t7" {
		t.Fatalf("Tick(7).String() = %q, want \"t7\"", got)
	}
}
