// Negative-path contracts: every mutating route on a follower answers
// the stable "read_only" code, and a cursor from a generation the
// leader never produced is fenced with the stable "stale_generation"
// code — at the wire, and permanently in the follower daemon.
package repl_test

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"fungusdb/internal/catalog"
	"fungusdb/internal/repl"
	"fungusdb/pkg/client"
)

// wantCode asserts err is the server's stable coded error.
func wantCode(t *testing.T, err error, code string, status int) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %q error, got success", code)
	}
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("want *client.Error with code %q, got %T: %v", code, err, err)
	}
	if ce.Code != code {
		t.Errorf("error code = %q, want %q (%v)", ce.Code, code, err)
	}
	if status != 0 && ce.Status != status {
		t.Errorf("http status = %d, want %d (%v)", ce.Status, status, err)
	}
}

// TestFollowerRejectsWrites pins the read-only contract on every
// mutating route while reads keep working.
func TestFollowerRejectsWrites(t *testing.T) {
	lh := startLeader(t, eventsSpec(2))
	lh.ingest(t, 10, 0)
	fh := startFollower(t, lh.srv.URL, nil)
	fh.waitSynced(t, lh)

	// DDL: create and drop.
	err := fh.cl.CreateTable(client.TableSpec{Name: "scratch", Schema: "a INT"})
	wantCode(t, err, "read_only", http.StatusForbidden)
	err = fh.cl.DropTable(tableName)
	wantCode(t, err, "read_only", http.StatusForbidden)

	// DML: insert and local decay.
	_, err = fh.cl.Insert(tableName, [][]any{{"dev-9", 1.5}})
	wantCode(t, err, "read_only", http.StatusForbidden)
	_, err = fh.cl.Tick(1)
	wantCode(t, err, "read_only", http.StatusForbidden)

	// Destructive reads: CONSUME through /v2/query mutates the extent,
	// so the same code applies there.
	_, err = fh.cl.Query("SELECT CONSUME * FROM events")
	wantCode(t, err, "read_only", http.StatusForbidden)

	// Plain reads still answer — the whole point of a follower.
	if got := queryRows(t, fh.cl, "SELECT * FROM events"); len(got) != 10 {
		t.Errorf("follower read returned %d rows, want 10", len(got))
	}
	// And nothing above leaked a mutation.
	assertShardsIdentical(t, lh, fh, []int{0, 1})
}

// TestStaleGenerationWire pins the 409 stale_generation answer to a
// replication cursor from the future — the raw wire contract.
func TestStaleGenerationWire(t *testing.T) {
	lh := startLeader(t, eventsSpec(2))
	lh.ingest(t, 5, 0)
	_, err := lh.cl.Replicate(tableName, client.ReplCursor{Generation: 999})
	wantCode(t, err, "stale_generation", http.StatusConflict)
}

// TestStaleGenerationFencesFollower swaps the leader out from under a
// live follower: after the follower's cursor has advanced to
// generation 1 on leader A, its transport is re-aimed at a freshly
// seeded leader B still on generation 0. The reconnect must be fenced
// — retrying against divergent history would splice two timelines —
// and the replica must stay up for reads.
func TestStaleGenerationFencesFollower(t *testing.T) {
	lhA := startLeader(t, eventsSpec(2))
	lhA.ingest(t, 20, 0)

	rt := newRewriteTransport()
	fh := startFollower(t, lhA.srv.URL, func(cfg *repl.Config) {
		cfg.HTTPClient = &http.Client{Transport: rt}
	})
	fh.waitSynced(t, lhA)

	// Advance leader A past generation 0 and wait for the follower's
	// cursor to follow it there (rollover or rebase, timing's choice).
	if err := lhA.tbl.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	lhA.ingest(t, 5, 1)
	if st, ok := fh.pollStatus(10*time.Second, func(st repl.TableStatus, ok bool) bool {
		return ok && st.Generation >= 1 && st.Connected && st.LagRecords == 0 && st.HaveCounts
	}); !ok {
		t.Fatalf("follower never reached generation 1 (status %+v)", st)
	}
	rowsBefore := queryRows(t, fh.cl, "SELECT * FROM events")

	// Leader B: same table name, but a history that never saw
	// generation 1.
	lhB := startLeader(t, eventsSpec(2))
	lhB.ingest(t, 3, 0)
	rt.setTarget(strings.TrimPrefix(lhB.srv.URL, "http://"))
	lhA.srv.CloseClientConnections() // drop the live stream to force the reconnect

	st, fenced := fh.pollStatus(10*time.Second, func(st repl.TableStatus, ok bool) bool { return ok && st.Fenced })
	if !fenced {
		t.Fatalf("follower never fenced against the regressed leader (status %+v)", st)
	}
	var ce *client.Error
	if !errors.As(st.Err, &ce) || ce.Code != "stale_generation" {
		t.Fatalf("fenced with %v, want pinned stale_generation", st.Err)
	}
	if st.Connected {
		t.Error("fenced table still reports a live stream")
	}

	// Fenced ≠ down: the replica still answers reads with its last
	// consistent state.
	if got := queryRows(t, fh.cl, "SELECT * FROM events"); len(got) != len(rowsBefore) {
		t.Errorf("fenced replica answered %d rows, want the pre-fence %d", len(got), len(rowsBefore))
	}
}

// TestNonReplayableLawReachesZeroLag: a follower of a table whose decay
// law is not replayable (EGI) skips the leader's logged ticks — it
// follows the evict records instead — yet must count each one as
// applied, or its lag never reaches zero and it never looks synced.
func TestNonReplayableLawReachesZeroLag(t *testing.T) {
	spec := eventsSpec(2)
	spec.Fungus = &catalog.FungusSpec{Kind: "egi", Seeds: 1, Rate: 0.3}
	lh := startLeader(t, spec)
	lh.ingest(t, 20, 0)
	lh.tick(t, 3)
	fh := startFollower(t, lh.srv.URL, nil)
	fh.waitSynced(t, lh)
	if st, ok := fh.pollStatus(5*time.Second, func(st repl.TableStatus, ok bool) bool {
		return ok && st.Connected && st.HaveCounts && st.LagRecords == 0
	}); !ok {
		t.Fatalf("lag never reached 0 records (status %+v)", st)
	}
}
