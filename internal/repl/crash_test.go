// Crash-injection tests for the follower apply path. The dangerous
// record is the tick: inserts and evicts are idempotent at the storage
// layer, but replaying a logged fungus run twice would decay freshness
// twice. So each test holds the leader to a single WAL generation and
// asserts the exact arithmetic — ticks applied == ticks issued × shards
// and inserts applied == rows ingested — on top of the byte-identical
// snapshot oracle. Redelivery provably happens (the faults strike after
// records applied but before the cursor confirmed), so the counters
// only land exact if the redelivered prefix is trimmed, not re-applied.
package repl_test

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fungusdb/internal/core"
	"fungusdb/internal/repl"
)

const (
	crashShards = 4
	crashTicks  = 3
	crashRows   = 80
)

// crashWorkload drives a fixed leader history inside one generation:
// crashRows inserts, crashTicks ticks, one destructive read.
func crashWorkload(t *testing.T, lh *leaderHarness) {
	t.Helper()
	lh.ingest(t, 50, 0)
	lh.tick(t, 2)
	lh.ingest(t, 30, 1)
	lh.consume(t, 60)
	lh.tick(t, 1)
}

// assertExactlyOnce checks the per-record-kind arithmetic after the
// follower caught up on a single-generation leader.
func assertExactlyOnce(t *testing.T, fh *followerHarness) {
	t.Helper()
	st, ok := fh.f.TableStatus(tableName)
	if !ok {
		t.Fatal("follower lost the table")
	}
	if want := uint64(crashTicks * crashShards); st.Ticks != want {
		t.Errorf("tick records applied %d, want exactly %d (one per shard per tick)", st.Ticks, want)
	}
	if want := uint64(crashRows); st.Inserts != want {
		t.Errorf("insert records applied %d, want exactly %d", st.Inserts, want)
	}
	if st.Reconnects < 1 {
		t.Errorf("fault was injected but the follower never reconnected")
	}
}

// TestCrashMidApplyBeforeCursorAdvance kills the stream right after a
// batch has been applied but before any commit confirms it — the
// follower-crash-between-apply-and-cursor-advance window. The
// reconnect resumes from the stale confirmed cursor, the leader
// redelivers the applied prefix, and the trim keeps every record
// exactly-once.
func TestCrashMidApplyBeforeCursorAdvance(t *testing.T) {
	lh := startLeader(t, eventsSpec(crashShards))
	crashWorkload(t, lh) // history exists before the follower ever connects

	var mu sync.Mutex
	crashes := 0
	fh := startFollower(t, lh.srv.URL, func(cfg *repl.Config) {
		cfg.OnApplied = func(table string, shard int, st core.ApplyStats) error {
			mu.Lock()
			defer mu.Unlock()
			crashes++
			if crashes == 1 || crashes == 3 {
				return fmt.Errorf("injected crash after applying shard %d batch", shard)
			}
			return nil
		}
	})
	fh.waitSynced(t, lh)
	assertExactlyOnce(t, fh)
	all := []int{0, 1, 2, 3}
	assertShardsIdentical(t, lh, fh, all)
}

// mutateTransport rewrites the FIRST /v2/replicate response stream
// line by line; later streams (the reconnects) pass through untouched.
type mutateTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	used bool
	fn   lineMutator
}

// lineMutator inspects one NDJSON line and returns its replacement
// plus a verdict: mutKeep keeps mutating later lines, mutDone switches
// the stream to passthrough, mutCut ends the body after this line.
type lineMutator func(line []byte) ([]byte, int)

const (
	mutKeep = iota
	mutDone
	mutCut
)

func (mt *mutateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := mt.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v2/replicate" {
		return resp, err
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.used {
		return resp, nil
	}
	mt.used = true
	resp.Body = &mutatedBody{rc: resp.Body, br: bufio.NewReader(resp.Body), fn: mt.fn}
	return resp, err
}

type mutatedBody struct {
	rc   io.ReadCloser
	br   *bufio.Reader
	fn   lineMutator
	buf  bytes.Buffer
	pass bool
	done bool
}

func (mb *mutatedBody) Read(p []byte) (int, error) {
	for mb.buf.Len() == 0 {
		if mb.done {
			return 0, io.EOF
		}
		if mb.pass {
			return mb.br.Read(p)
		}
		line, err := mb.br.ReadBytes('\n')
		if len(line) > 0 {
			out, verdict := mb.fn(line)
			mb.buf.Write(out)
			switch verdict {
			case mutDone:
				mb.pass = true
			case mutCut:
				mb.done = true
			}
		}
		if err != nil {
			mb.done = true
			break
		}
	}
	return mb.buf.Read(p)
}

func (mb *mutatedBody) Close() error { return mb.rc.Close() }

// TestTornStreamRedelivery cuts the wire immediately after the first
// shipped record batch, before its commit line — the shipped-batch-
// torn-at-a-batch-boundary fault. The batch has been applied; the
// reconnect redelivers it; exactly-once must survive.
func TestTornStreamRedelivery(t *testing.T) {
	lh := startLeader(t, eventsSpec(crashShards))
	crashWorkload(t, lh)

	mt := &mutateTransport{base: http.DefaultTransport, fn: func(line []byte) ([]byte, int) {
		if bytes.Contains(line, []byte(`"recs"`)) {
			return line, mutCut // deliver the batch, then die before the commit
		}
		return line, mutKeep
	}}
	fh := startFollower(t, lh.srv.URL, func(cfg *repl.Config) {
		cfg.HTTPClient = &http.Client{Transport: mt}
	})
	fh.waitSynced(t, lh)
	assertExactlyOnce(t, fh)
	assertShardsIdentical(t, lh, fh, []int{0, 1, 2, 3})
}

// TestTornBatchRejectedBeforeApply corrupts the first shipped batch by
// chopping its payload mid-frame. The follower must reject the whole
// batch up front (nothing half-applies — a half-applied batch would
// replay its tick records after reconnect), pin a torn-batch error,
// reconnect, and converge off the intact redelivery.
func TestTornBatchRejectedBeforeApply(t *testing.T) {
	lh := startLeader(t, eventsSpec(crashShards))
	crashWorkload(t, lh)

	mt := &mutateTransport{base: http.DefaultTransport, fn: func(line []byte) ([]byte, int) {
		if !bytes.Contains(line, []byte(`"recs"`)) {
			return line, mutKeep
		}
		var ev struct {
			Recs struct {
				Shard int    `json:"shard"`
				From  int64  `json:"from"`
				N     int    `json:"n"`
				Data  []byte `json:"data"`
			} `json:"recs"`
		}
		if err := json.Unmarshal(line, &ev); err != nil || len(ev.Recs.Data) < 8 {
			return line, mutKeep
		}
		ev.Recs.Data = ev.Recs.Data[:len(ev.Recs.Data)-5] // tear the last frame mid-record
		out, err := json.Marshal(map[string]any{"recs": map[string]any{
			"shard": ev.Recs.Shard, "from": ev.Recs.From, "n": ev.Recs.N,
			"data": base64.StdEncoding.EncodeToString(ev.Recs.Data),
		}})
		if err != nil {
			return line, mutKeep
		}
		return append(out, '\n'), mutDone
	}}
	fh := startFollower(t, lh.srv.URL, func(cfg *repl.Config) {
		cfg.HTTPClient = &http.Client{Transport: mt}
	})
	fh.waitSynced(t, lh)
	assertExactlyOnce(t, fh)
	assertShardsIdentical(t, lh, fh, []int{0, 1, 2, 3})

	// The rejection is pinned in the table's status: the last stream
	// error was the pre-apply validation, not a storage failure.
	if st, ok := fh.pollStatus(2*time.Second, func(st repl.TableStatus, _ bool) bool {
		return st.Err != nil && strings.Contains(st.Err.Error(), "torn or corrupt")
	}); !ok {
		t.Fatalf("torn batch never surfaced as a validation error (last: %v)", st.Err)
	}
}
