package sketch

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBoundedHeapKeepsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 3, 10, 64} {
		for _, n := range []int{0, 1, k, 3 * k, 1000} {
			h := NewBoundedHeap(k, func(a, b int) bool { return a < b })
			vals := make([]int, n)
			for i := range vals {
				vals[i] = rng.Intn(200) // duplicates likely
				h.Push(vals[i])
			}
			want := append([]int(nil), vals...)
			sort.Ints(want)
			if len(want) > k {
				want = want[:k]
			}
			got := append([]int(nil), h.Items()...)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("k=%d n=%d: kept %d, want %d", k, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d n=%d: kept %v, want %v", k, n, got, want)
				}
			}
			if h.Cap() != k {
				t.Errorf("Cap = %d", h.Cap())
			}
		}
	}
}

func TestBoundedHeapRejectsNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	NewBoundedHeap(0, func(a, b int) bool { return a < b })
}

// TestBoundedHeapReplaceTop: a caller that compares against the root
// itself and replaces it keeps the same k smallest items Push keeps.
func TestBoundedHeapReplaceTop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, n = 8, 500
	less := func(a, b int) bool { return a < b }
	pushed, replaced := NewBoundedHeap(k, less), NewBoundedHeap(k, less)
	for i := 0; i < n; i++ {
		x := rng.Intn(300)
		pushed.Push(x)
		switch {
		case replaced.Len() < k:
			replaced.Push(x)
		case x < replaced.Items()[0]:
			replaced.ReplaceTop(x)
		}
	}
	got, want := append([]int(nil), replaced.Items()...), append([]int(nil), pushed.Items()...)
	sort.Ints(got)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReplaceTop kept %v, Push kept %v", got, want)
		}
	}
}
