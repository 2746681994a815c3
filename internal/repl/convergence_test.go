// The convergence property test: a randomized ingest × decay ×
// destructive-read workload against a leader, shipped to a follower
// whose stream is cut at fuzzed commit boundaries and whose generation
// rolls under forced checkpoints — and whose final state must still be
// byte-identical, shard for shard.
package repl_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fungusdb/internal/repl"
	"fungusdb/pkg/client"
)

// commitCutter injects stream disconnects at a fuzzed set of commit
// indices — the convergence suite's "kill the wire at an arbitrary
// group-commit boundary" fault.
type commitCutter struct {
	mu   sync.Mutex
	n    uint64
	cuts map[uint64]bool
	hit  int
}

func newCommitCutter(rng *rand.Rand, want int) *commitCutter {
	cc := &commitCutter{cuts: map[uint64]bool{}}
	next := uint64(1 + rng.Intn(3))
	for i := 0; i < want; i++ {
		cc.cuts[next] = true
		next += uint64(2 + rng.Intn(4))
	}
	return cc
}

func (cc *commitCutter) onCommit(table string, c client.ReplCommit) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.n++
	if cc.cuts[cc.n] {
		cc.hit++
		return fmt.Errorf("injected disconnect at commit %d", cc.n)
	}
	return nil
}

func (cc *commitCutter) hits() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.hit
}

// TestConvergence is the acceptance property: under a random workload
// with at least two injected disconnects and forced checkpoint churn,
// leader and follower converge to byte-identical shard snapshots and
// identical query answers — at one, four and seven shards.
func TestConvergence(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(40 + shards)))
			lh := startLeader(t, eventsSpec(shards))
			cc := newCommitCutter(rng, 2+rng.Intn(2))
			fh := startFollower(t, lh.srv.URL, func(cfg *repl.Config) {
				cfg.OnCommit = cc.onCommit
			})

			rounds := 8 + rng.Intn(4)
			for r := 0; r < rounds; r++ {
				lh.ingest(t, 20+rng.Intn(40), r)
				switch rng.Intn(4) {
				case 0:
					lh.tick(t, 1+rng.Intn(3))
				case 1:
					lh.consume(t, float64(50+rng.Intn(40)))
				case 2:
					// Force a checkpoint: the WAL truncates and the
					// generation advances under the live stream, driving
					// the rollover (caught-up cursor) or rebase (lagging
					// cursor) path depending on shipping timing.
					if err := lh.tbl.Checkpoint(); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
				// Let the follower apply the round before the next one
				// starts, so each round ships (and commits) separately
				// instead of coalescing into one tail burst — the commit
				// stream is what the cutter's fuzzed indices land on. The
				// round's own checkpoint still races the shipping of its
				// ingest, which is what picks rollover or rebase.
				fh.waitSynced(t, lh)
			}
			// Top up the workload until every fuzzed cut has fired: the
			// property needs >= 2 real disconnects, not two dice rolls.
			for i := 0; cc.hits() < 2 && i < 100; i++ {
				lh.ingest(t, 5, 100+i)
				fh.waitSynced(t, lh)
			}
			// A final decay ramp so rot-eviction (tick replay on the
			// follower) provably ran, then quiesce.
			lh.tick(t, 3)

			fh.waitSynced(t, lh)
			if got := cc.hits(); got < 2 {
				t.Fatalf("want >= 2 injected disconnects, fuzz hit %d (commit cuts %v)", got, cc.cuts)
			}
			st, ok := fh.f.TableStatus(tableName)
			if !ok {
				t.Fatal("follower lost the table")
			}
			if st.Reconnects < 2 {
				t.Errorf("want >= 2 reconnects after injected cuts, got %d", st.Reconnects)
			}
			if st.Fenced {
				t.Fatalf("follower fenced unexpectedly: %v", st.Err)
			}

			all := make([]int, shards)
			for i := range all {
				all[i] = i
			}
			assertShardsIdentical(t, lh, fh, all)
			assertQueriesIdentical(t, lh, fh)
		})
	}
}

// TestConvergenceAcrossRestartRebase pins the rebase path explicitly: a
// follower that joins after the leader has already checkpointed twice
// can only start from shipped snapshots, and must still land on
// byte-identical shards.
func TestConvergenceAcrossRestartRebase(t *testing.T) {
	lh := startLeader(t, eventsSpec(4))
	lh.ingest(t, 60, 0)
	lh.tick(t, 2)
	if err := lh.tbl.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	lh.ingest(t, 40, 1)
	lh.consume(t, 55)
	if err := lh.tbl.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	lh.ingest(t, 30, 2)
	lh.tick(t, 1)

	fh := startFollower(t, lh.srv.URL, nil)
	fh.waitSynced(t, lh)
	st, _ := fh.f.TableStatus(tableName)
	if st.Rebases < 1 {
		t.Errorf("late join against a checkpointed leader should rebase, got %d rebases", st.Rebases)
	}
	assertShardsIdentical(t, lh, fh, []int{0, 1, 2, 3})
	assertQueriesIdentical(t, lh, fh)
}

// TestConvergenceRepeatedStringAfterRebase pins an interleaving that
// once made TestConvergence flake: a follower rebased from a shipped
// snapshot mid-segment, then inserts whose STRING values repeat ones
// already in that segment. The leader folded the segment's zone map
// row by row on append; the follower rebuilt it from the snapshot's
// rows and folds the repeats on replay. Both sides must hold the same
// tuples, and both zone maps must pass the audit.
func TestConvergenceRepeatedStringAfterRebase(t *testing.T) {
	lh := startLeader(t, eventsSpec(1))
	insert := func(devices ...string) {
		t.Helper()
		rows := make([][]any, len(devices))
		for i, d := range devices {
			rows[i] = []any{d, 20.5}
		}
		if _, err := lh.cl.Insert(tableName, rows); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	insert("dev-a", "dev-b", "dev-c")
	if err := lh.tbl.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// A late join against a checkpointed leader can only rebase.
	fh := startFollower(t, lh.srv.URL, nil)
	fh.waitSynced(t, lh)
	if st, _ := fh.f.TableStatus(tableName); st.Rebases < 1 {
		t.Fatalf("want a rebase before the repeat insert, got %d", st.Rebases)
	}
	insert("dev-c", "dev-a")
	fh.waitSynced(t, lh)
	assertShardsIdentical(t, lh, fh, []int{0})
}
