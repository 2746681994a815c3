package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// Crash-injection tests for group-commit durability: a crash mid-group
// must lose AT MOST the unacknowledged window — every append whose
// CommitWait resolved before the crash is recovered, across shard
// counts. The "crash" snapshots the directory while the log objects
// are still open and un-flushed, exactly the on-disk state an aborted
// process leaves behind (buffered appends never reached the files).

// TestGroupCommitCrashLosesOnlyUnacknowledged drives a deterministic
// window (no ticker, unreachable size threshold): acked rows are
// exactly the ones flushed before the crash, and recovery returns
// exactly that set — nothing acknowledged lost, nothing unacknowledged
// resurrected.
func TestGroupCommitCrashLosesOnlyUnacknowledged(t *testing.T) {
	const acked, unacked = 30, 11
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ss, sl := buildSharded(t, dir, shards, 0)
			gc := manualGC(sl)

			appendNoted := func(k int) CommitWait {
				i := ss.NextShard()
				tp, err := ss.InsertShard(i, 1, row("dev", int64(k)))
				if err != nil {
					t.Fatal(err)
				}
				if err := sl.AppendInsert(i, tp); err != nil {
					t.Fatal(err)
				}
				return gc.Note(i, 1)
			}

			waits := make([]CommitWait, 0, acked)
			for k := 0; k < acked; k++ {
				waits = append(waits, appendNoted(k))
			}
			if err := gc.Flush(); err != nil {
				t.Fatal(err)
			}
			for k, w := range waits {
				if !w.Resolved() {
					t.Fatalf("wait %d unresolved after its window flushed", k)
				}
			}
			// The next window: appended and noted, never flushed. Their
			// waits must still be pending at the crash.
			var pending []CommitWait
			for k := acked; k < acked+unacked; k++ {
				pending = append(pending, appendNoted(k))
			}
			for k, w := range pending {
				if w.Resolved() {
					t.Fatalf("unflushed wait %d already resolved", k)
				}
			}

			// Crash: snapshot the directory with the logs still open.
			// The unflushed window lives only in the writers' buffers,
			// so the copy holds exactly the acknowledged state.
			crashed := copyDir(t, dir)

			got := storage.NewSharded(walSchema, shards)
			if err := RecoverSharded(crashed, got, shards); err != nil {
				t.Fatal(err)
			}
			if got.Len() != acked {
				t.Fatalf("recovered %d tuples, want the %d acknowledged", got.Len(), acked)
			}
			for id := 0; id < acked; id++ {
				if !has(got, tuple.ID(id)) {
					t.Errorf("acknowledged tuple %d lost in crash", id)
				}
			}
			for id := acked; id < acked+unacked; id++ {
				if has(got, tuple.ID(id)) {
					t.Errorf("unacknowledged tuple %d survived the crash", id)
				}
			}

			// Cleanly shut the live side down (not part of the crash).
			if err := gc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sl.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGroupCommitCrashMidGroupConcurrent crashes while appenders and
// the group-commit daemon are racing: whatever set of waits had
// resolved when the crash copy began must be a subset of what recovery
// returns. (Unacknowledged rows may or may not survive — the guarantee
// is one-sided.)
func TestGroupCommitCrashMidGroupConcurrent(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ss, sl := buildSharded(t, dir, shards, 0)
			gc := NewGroupCommitter(sl, GroupCommitConfig{Interval: 200 * time.Microsecond, SizeThreshold: 16})

			// The crash comes once crashAfter appends were acknowledged,
			// with the appenders and the daemon still racing.
			const crashAfter = 64
			var ackMu sync.Mutex
			acked := make(map[tuple.ID]bool)
			enough := make(chan struct{})
			stop := make(chan struct{})
			locks := make([]sync.Mutex, shards)
			var wg sync.WaitGroup
			for w := 0; w < shards; w++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; ; k++ {
						select {
						case <-stop:
							return
						default:
						}
						locks[i].Lock()
						tp, err := ss.InsertShard(i, 1, row("dev", int64(k)))
						if err != nil {
							locks[i].Unlock()
							t.Error(err)
							return
						}
						if err := sl.AppendInsert(i, tp); err != nil {
							locks[i].Unlock()
							t.Error(err)
							return
						}
						cw := gc.Note(i, 1)
						locks[i].Unlock()
						if err := cw.Wait(); err != nil {
							t.Error(err)
							return
						}
						ackMu.Lock()
						acked[tp.ID] = true
						if len(acked) == crashAfter {
							close(enough)
						}
						ackMu.Unlock()
					}
				}(w)
			}
			select {
			case <-enough:
			case <-time.After(10 * time.Second):
				close(stop)
				wg.Wait()
				t.Fatalf("only %d appends acknowledged in 10s", len(acked))
			}

			// Crash point: freeze the acknowledged set FIRST, then copy
			// the directory. Every acked record was fsynced before its
			// ID entered the set, so it is within the stable prefix the
			// copy captures even though appends keep racing.
			ackMu.Lock()
			ackedAtCrash := make([]tuple.ID, 0, len(acked))
			for id := range acked {
				ackedAtCrash = append(ackedAtCrash, id)
			}
			ackMu.Unlock()
			crashed := copyDir(t, dir)

			close(stop)
			wg.Wait()
			if err := gc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sl.Close(); err != nil {
				t.Fatal(err)
			}

			if len(ackedAtCrash) == 0 {
				t.Fatal("nothing acknowledged before the crash; test proves nothing")
			}
			got := storage.NewSharded(walSchema, shards)
			if err := RecoverSharded(crashed, got, shards); err != nil {
				t.Fatal(err)
			}
			for _, id := range ackedAtCrash {
				if !has(got, id) {
					t.Errorf("acknowledged tuple %d lost in mid-group crash", id)
				}
			}
		})
	}
}
