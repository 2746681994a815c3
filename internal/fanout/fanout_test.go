package fanout

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// goroutineID reads the running goroutine's ID off its stack header
// ("goroutine 17 [running]:"), the only way to tell goroutines apart.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestRunEveryIndexLowestErrorWins: whatever the worker count, every
// index runs exactly once even when earlier ones fail, and the error
// returned is the lowest-index one — which work completes and which
// error surfaces must not depend on scheduling.
func TestRunEveryIndexLowestErrorWins(t *testing.T) {
	const n = 37
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, n, n + 5} {
		for _, failing := range [][]int{nil, {0}, {n - 1}, {5, 6, 30}, {30, 6}} {
			ran := make([]atomic.Int32, n)
			fails := map[int]bool{}
			want := -1
			for _, i := range failing {
				fails[i] = true
				if want < 0 || i < want {
					want = i
				}
			}
			err := Run(n, workers, func(i int) error {
				ran[i].Add(1)
				if fails[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("workers=%d failing=%v: index %d ran %d times", workers, failing, i, got)
				}
			}
			switch {
			case want < 0 && err != nil:
				t.Errorf("workers=%d: err = %v, want nil", workers, err)
			case want >= 0 && (err == nil || err.Error() != fmt.Sprintf("index %d", want)):
				t.Errorf("workers=%d failing=%v: err = %v, want index %d", workers, failing, err, want)
			}
		}
	}
}

// TestRunInlineOnCaller: with at most one worker (or one item) nothing
// is spawned — every call runs on the caller's goroutine, in index
// order, so a one-shard table pays no synchronisation.
func TestRunInlineOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, tc := range []struct{ n, workers int }{{5, 1}, {5, 0}, {5, -3}, {1, 8}, {0, 4}} {
		var order []int
		err := Run(tc.n, tc.workers, func(i int) error {
			if id := goroutineID(); id != caller {
				t.Errorf("n=%d workers=%d: index %d ran on goroutine %s, caller is %s", tc.n, tc.workers, i, id, caller)
			}
			order = append(order, i) // unsynchronised on purpose: -race proves it is inline
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != tc.n {
			t.Fatalf("n=%d workers=%d: ran %v", tc.n, tc.workers, order)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: order %v", tc.n, tc.workers, order)
			}
		}
	}
}

// TestRunBoundsWorkers: the pool never runs more than `workers` calls
// at once, and its writes are visible to the caller after Run returns
// (the -race job runs this).
func TestRunBoundsWorkers(t *testing.T) {
	const n, workers = 64, 3
	var running, peak atomic.Int32
	out := make([]int, n)
	sentinel := errors.New("last")
	err := Run(n, workers, func(i int) error {
		cur := running.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		runtime.Gosched()
		out[i] = i * i
		running.Add(-1)
		if i == n-1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d calls ran at once, pool is %d", p, workers)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
