// The replication test harness: an in-process leader (persistent DB +
// HTTP server) and follower (in-memory replica DB + repl daemon +
// read-only HTTP front end), plus the convergence oracles the suite
// shares — byte-identical shard snapshots and identical query answers.
//
// The follower DB deliberately runs with a DIFFERENT seed than the
// leader: replayable decay laws are pure functions of (clock, extent),
// so convergence despite divergent RNG streams is itself one of the
// properties under test.
package repl_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fungusdb/internal/catalog"
	"fungusdb/internal/core"
	"fungusdb/internal/repl"
	"fungusdb/internal/server"
	"fungusdb/pkg/client"
)

const tableName = "events"

// eventsSpec is the workload table: a linear fungus (replayable, so
// the follower re-executes logged ticks) over a sharded extent.
func eventsSpec(shards int) catalog.TableSpec {
	return catalog.TableSpec{
		Name:   tableName,
		Schema: "device STRING, temp FLOAT",
		Fungus: &catalog.FungusSpec{Kind: "linear", Rate: 0.04},
		Shards: shards,
		// Generation churn is driven explicitly by the tests (forced
		// checkpoints); keep the automatic trigger out of the way.
		CheckpointEvery: 1 << 30,
	}
}

// leaderHarness is a persistent DB with one spec table behind a real
// HTTP server.
type leaderHarness struct {
	db  *core.DB
	tbl *core.Table
	srv *httptest.Server
	cl  *client.Client
}

func startLeader(t *testing.T, spec catalog.TableSpec) *leaderHarness {
	t.Helper()
	db, err := core.Open(core.DBConfig{Seed: 20150104, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTableFromSpec(spec)
	if err != nil {
		t.Fatalf("create leader table: %v", err)
	}
	srv := httptest.NewServer(server.New(db))
	t.Cleanup(srv.Close)
	return &leaderHarness{db: db, tbl: tbl, srv: srv, cl: client.New(srv.URL, nil)}
}

// followerHarness is an in-memory replica DB, its repl daemon, and a
// read-only HTTP front end wired the way cmd/fungusd wires a -follow
// process.
type followerHarness struct {
	db  *core.DB
	f   *repl.Follower
	srv *httptest.Server
	cl  *client.Client
}

// startFollower spins a follower against leaderURL. mod, when non-nil,
// edits the repl.Config before Start (tests inject transports and
// disconnect hooks through it).
func startFollower(t *testing.T, leaderURL string, mod func(*repl.Config)) *followerHarness {
	t.Helper()
	db, err := core.Open(core.DBConfig{Seed: 987654321}) // a different seed than the leader, on purpose
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	cfg := repl.Config{
		Leader:     leaderURL,
		DB:         db,
		PollTables: 20 * time.Millisecond,
		Backoff:    5 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	f, err := repl.Start(cfg)
	if err != nil {
		t.Fatalf("start follower: %v", err)
	}
	t.Cleanup(f.Stop)
	srvCfg := server.Config{ReadOnly: true, ReplStatus: f.ServerStatus}
	handler := server.NewWithConfig(db, srvCfg)
	handler.Registry().Register(f.Collector())
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return &followerHarness{db: db, f: f, srv: srv, cl: client.New(srv.URL, nil)}
}

// waitSynced quiesces: the leader must be idle before calling, and on
// return the follower has applied every record of the leader's current
// generation. It compares against leader-side truth (the WAL's own
// record counts), not the follower's last-heard counts, so a record
// appended a microsecond before the call is still waited for.
func (fh *followerHarness) waitSynced(t *testing.T, lh *leaderHarness) {
	t.Helper()
	log := lh.tbl.ShipLog()
	var gen, want uint64
	st, synced := fh.pollStatus(15*time.Second, func(st repl.TableStatus, ok bool) bool {
		gen, want = log.Manifest().Generation, 0
		for _, c := range log.RecordCounts() {
			want += c
		}
		return ok && st.Connected && !st.Fenced && st.Generation == gen && st.AppliedRecords == want
	})
	if !synced {
		t.Fatalf("follower never synced: leader gen %d with %d records, follower %+v", gen, want, st)
	}
}

// pollStatus re-reads the follower's status of the events table until
// cond holds (true) or timeout passes (false), and returns the last
// status read. The follower has nothing to wait on, so this polls; the
// pause between polls cannot fail a test — it only paces re-checks of
// cond, and only the deadline, far beyond any one replication step,
// decides a failure.
func (fh *followerHarness) pollStatus(timeout time.Duration, cond func(st repl.TableStatus, ok bool) bool) (repl.TableStatus, bool) {
	deadline := time.Now().Add(timeout)
	for {
		st, ok := fh.f.TableStatus(tableName)
		if cond(st, ok) {
			return st, true
		}
		if time.Now().After(deadline) {
			return st, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertShardsIdentical is the core convergence oracle: the named
// shards of leader and follower must serialize to byte-identical
// snapshot files (same tuples, same freshness, same allocation
// cursor), and both sides' zone maps must pass the audit.
func assertShardsIdentical(t *testing.T, lh *leaderHarness, fh *followerHarness, shards []int) {
	t.Helper()
	ftbl, err := fh.db.Table(tableName)
	if err != nil {
		t.Fatalf("follower table: %v", err)
	}
	// Both sides' zone maps must hold their live rows: the follower's
	// are built by replay or rebuilt from a shipped snapshot's rows.
	if err := lh.tbl.AuditZones(); err != nil {
		t.Errorf("leader: %v", err)
	}
	if err := ftbl.AuditZones(); err != nil {
		t.Errorf("follower: %v", err)
	}
	dir := t.TempDir()
	for _, i := range shards {
		lp := filepath.Join(dir, fmt.Sprintf("leader.%d.db", i))
		fp := filepath.Join(dir, fmt.Sprintf("follower.%d.db", i))
		if err := lh.tbl.DumpShardSnapshot(i, lp); err != nil {
			t.Fatalf("dump leader shard %d: %v", i, err)
		}
		if err := ftbl.DumpShardSnapshot(i, fp); err != nil {
			t.Fatalf("dump follower shard %d: %v", i, err)
		}
		lb, err := os.ReadFile(lp)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(fp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb, fb) {
			t.Errorf("shard %d diverged: leader snapshot %d bytes, follower %d bytes", i, len(lb), len(fb))
		}
	}
}

// queryRows drains one query into printable rows.
func queryRows(t *testing.T, c *client.Client, sql string, params ...any) []string {
	t.Helper()
	rows, err := c.Query(sql, params...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, fmt.Sprintf("%v", rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return out
}

// assertQueriesIdentical runs the same read-only statements through
// both HTTP servers and compares every row.
func assertQueriesIdentical(t *testing.T, lh *leaderHarness, fh *followerHarness) {
	t.Helper()
	queries := []string{
		"SELECT * FROM events",
		"SELECT device, COUNT(*) AS n FROM events GROUP BY device ORDER BY n DESC LIMIT 5",
		"SELECT device, temp FROM events WHERE temp > 40 ORDER BY temp DESC LIMIT 10",
	}
	for _, q := range queries {
		l := queryRows(t, lh.cl, q)
		f := queryRows(t, fh.cl, q)
		if len(l) != len(f) {
			t.Errorf("query %q: leader %d rows, follower %d rows", q, len(l), len(f))
			continue
		}
		for i := range l {
			if l[i] != f[i] {
				t.Errorf("query %q row %d: leader %s, follower %s", q, i, l[i], f[i])
				break
			}
		}
	}
}

// ingest writes n deterministic-but-varied rows through the leader's
// HTTP API.
func (lh *leaderHarness) ingest(t *testing.T, n int, round int) {
	t.Helper()
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []any{
			fmt.Sprintf("dev-%d", (round*7+i)%13),
			float64((round*31+i*17)%90) + 0.5,
		})
	}
	if _, err := lh.cl.Insert(tableName, rows); err != nil {
		t.Fatalf("insert: %v", err)
	}
}

// consume churns the extent through the paper's destructive-read law.
func (lh *leaderHarness) consume(t *testing.T, threshold float64) {
	t.Helper()
	rows, err := lh.cl.Query("SELECT CONSUME * FROM events WHERE temp > ?", threshold)
	if err != nil {
		t.Fatalf("consume: %v", err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("consume: %v", err)
	}
	rows.Close()
}

func (lh *leaderHarness) tick(t *testing.T, n int) {
	t.Helper()
	if _, err := lh.cl.Tick(n); err != nil {
		t.Fatalf("tick: %v", err)
	}
}

// rewriteTransport redirects every request to the current target host,
// letting a test swap the leader out from under a live follower. The
// zero target passes requests through untouched.
type rewriteTransport struct {
	base   http.RoundTripper
	mu     chan struct{} // 1-buffered mutex (keeps the struct copy-safe in vet's eyes)
	target string        // host:port, "" = passthrough
}

func newRewriteTransport() *rewriteTransport {
	rt := &rewriteTransport{base: http.DefaultTransport, mu: make(chan struct{}, 1)}
	rt.mu <- struct{}{}
	return rt
}

func (rt *rewriteTransport) setTarget(host string) {
	<-rt.mu
	rt.target = host
	rt.mu <- struct{}{}
}

func (rt *rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	<-rt.mu
	target := rt.target
	rt.mu <- struct{}{}
	if target != "" {
		clone := req.Clone(req.Context())
		clone.URL.Host = target
		clone.Host = target
		req = clone
	}
	return rt.base.RoundTrip(req)
}
