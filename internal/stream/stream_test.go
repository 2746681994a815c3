package stream

import (
	"strings"
	"testing"

	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/tuple"
)

var logSchema = tuple.MustSchema(
	tuple.Column{Name: "host", Kind: tuple.KindString},
	tuple.Column{Name: "sev", Kind: tuple.KindInt},
)

func newTable(t *testing.T, f fungus.Fungus) (*core.DB, *core.Table) {
	t.Helper()
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("logs", core.TableConfig{Schema: logSchema, Fungus: f})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestOnMatchFiresOncePerTuple(t *testing.T) {
	_, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	var got []Event
	if err := m.OnMatch("serious", "sev <= 3", func(e Event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	tbl.Insert(core.Row("web-1", 7))
	tbl.Insert(core.Row("web-2", 2))
	tbl.Insert(core.Row("web-3", 1))

	fired, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 || len(got) != 2 {
		t.Fatalf("fired %d, events %d", fired, len(got))
	}
	if got[0].Tuple.Attrs[0].AsString() != "web-2" || got[1].Tuple.Attrs[0].AsString() != "web-3" {
		t.Errorf("events out of order: %v", got)
	}
	if got[0].Rule != "serious" {
		t.Errorf("rule name = %q", got[0].Rule)
	}

	// Second poll with nothing new: no refiring.
	fired, _ = m.Poll()
	if fired != 0 {
		t.Errorf("refired %d", fired)
	}
	// New tuple seen exactly once.
	tbl.Insert(core.Row("web-4", 0))
	fired, _ = m.Poll()
	if fired != 1 || len(got) != 3 {
		t.Errorf("after new insert fired %d, events %d", fired, len(got))
	}
}

func TestMultipleRulesAllFire(t *testing.T) {
	_, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	counts := map[string]int{}
	m.OnMatch("all", "", func(e Event) { counts[e.Rule]++ })
	m.OnMatch("web1", "host = 'web-1'", func(e Event) { counts[e.Rule]++ })
	tbl.Insert(core.Row("web-1", 5))
	tbl.Insert(core.Row("web-2", 5))
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if counts["all"] != 2 || counts["web1"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	st := m.Stats()
	if st.Polled != 2 || st.Fired != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOnMatchBadPredicate(t *testing.T) {
	_, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	if err := m.OnMatch("x", "nosuch = 1", func(Event) {}); err == nil {
		t.Error("bad predicate accepted")
	}
	if err := m.OnMatch("x", "", nil); err == nil {
		t.Error("nil action accepted")
	}
}

func TestSequenceRule(t *testing.T) {
	db, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	var fired []Event
	// Complex event: an auth failure (sev 4) followed by an emergency
	// (sev 0) within 5 ticks.
	if err := m.OnSequence("breach", "sev = 4", "sev = 0", 5, func(e Event) {
		fired = append(fired, e)
	}); err != nil {
		t.Fatal(err)
	}

	tbl.Insert(core.Row("web-1", 4)) // first at t0
	db.Tick()
	db.Tick()
	tbl.Insert(core.Row("web-1", 0)) // then at t2: within window
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("sequence fired %d times", len(fired))
	}
	if fired[0].First.T != 0 || fired[0].At != 2 {
		t.Errorf("event = %+v", fired[0])
	}

	// A second 'then' with no pending first: no firing.
	tbl.Insert(core.Row("web-1", 0))
	m.Poll()
	if len(fired) != 1 {
		t.Errorf("unarmed sequence fired")
	}
}

func TestSequenceWindowExpires(t *testing.T) {
	db, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	count := 0
	m.OnSequence("slow", "sev = 4", "sev = 0", 3, func(Event) { count++ })

	tbl.Insert(core.Row("a", 4)) // first at t0
	for i := 0; i < 10; i++ {
		db.Tick()
	}
	tbl.Insert(core.Row("a", 0)) // then at t10: window long gone
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("expired sequence fired %d", count)
	}
}

func TestSequenceAcrossPolls(t *testing.T) {
	db, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	count := 0
	m.OnSequence("s", "sev = 4", "sev = 0", 10, func(Event) { count++ })
	tbl.Insert(core.Row("a", 4))
	m.Poll() // first seen in poll 1
	db.Tick()
	tbl.Insert(core.Row("a", 0))
	m.Poll() // then seen in poll 2
	if count != 1 {
		t.Errorf("cross-poll sequence fired %d", count)
	}
}

// TestPollRuleOrderAndErrorPrecedence pins what Poll does with several
// rules over several rows: events fire row by row, and within a row in
// rule order, simple rules before sequence rules. The first error in
// that (row, rule) order ends the Poll after the events before it have
// fired, and the rows that Poll read are not read again. A sequence
// rule's first predicate is evaluated only where its then predicate did
// not fire, so an error it would raise on such a row never surfaces.
func TestPollRuleOrderAndErrorPrecedence(t *testing.T) {
	type fired struct {
		rule      string
		sev       int64
		firstTick int64
	}
	record := func(got *[]fired) Action {
		return func(e Event) {
			*got = append(*got, fired{e.Rule, e.Tuple.Attrs[1].AsInt(), int64(e.First.T)})
		}
	}
	same := func(got, want []fired) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	t.Run("first error ends the poll", func(t *testing.T) {
		db, tbl := newTable(t, nil)
		m := NewMonitor(tbl)
		var got []fired
		if err := m.OnMatch("low", "sev < 5", record(&got)); err != nil {
			t.Fatal(err)
		}
		if err := m.OnMatch("div", "10 / (sev - 3) > 1", record(&got)); err != nil {
			t.Fatal(err)
		}
		if err := m.OnSequence("pair", "sev = 1", "sev = 2", 10, record(&got)); err != nil {
			t.Fatal(err)
		}
		for sev := 1; sev <= 4; sev++ {
			db.Tick()
			tbl.Insert(core.Row("web-1", sev))
		}
		n, err := m.Poll()
		if err == nil || !strings.Contains(err.Error(), `rule "div"`) || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("Poll error = %v, want rule \"div\" dividing by zero", err)
		}
		want := []fired{{"low", 1, 0}, {"low", 2, 0}, {"pair", 2, 1}, {"low", 3, 0}}
		if n != len(want) || !same(got, want) {
			t.Fatalf("Poll fired %d: %v, want %v", n, got, want)
		}
		if st := m.Stats(); st.Polled != 3 || st.Fired != 4 || st.Missed != 0 {
			t.Errorf("stats = %+v, want 3 polled, 4 fired", st)
		}

		// The rows that poll read, erroring or not, are not re-polled.
		got = nil
		if n, err := m.Poll(); n != 0 || err != nil || len(got) != 0 {
			t.Fatalf("second Poll = %d, %v, events %v", n, err, got)
		}
		db.Tick()
		tbl.Insert(core.Row("web-1", 6))
		n, err = m.Poll()
		if want := []fired{{"div", 6, 0}}; err != nil || n != 1 || !same(got, want) {
			t.Fatalf("third Poll = %d, %v, events %v, want %v", n, err, got, want)
		}
	})

	t.Run("sequence first is not evaluated where then fires", func(t *testing.T) {
		db, tbl := newTable(t, nil)
		m := NewMonitor(tbl)
		var got []fired
		if err := m.OnSequence("pair", "10 / (sev - 3) > 1", "sev = 3", 10, record(&got)); err != nil {
			t.Fatal(err)
		}
		for _, sev := range []int{4, 3, 4, 3} {
			db.Tick()
			tbl.Insert(core.Row("web-1", sev))
		}
		n, err := m.Poll()
		want := []fired{{"pair", 3, 1}, {"pair", 3, 3}}
		if err != nil || n != len(want) || !same(got, want) {
			t.Fatalf("Poll = %d, %v, events %v, want %v", n, err, got, want)
		}

		// With nothing pending, then does not fire and first runs.
		got = nil
		db.Tick()
		tbl.Insert(core.Row("web-1", 3))
		n, err = m.Poll()
		if err == nil || !strings.Contains(err.Error(), `rule "pair"`) || n != 0 || len(got) != 0 {
			t.Fatalf("Poll = %d, %v, events %v, want rule \"pair\" dividing by zero", n, err, got)
		}
	})
}

// TestStringRuleAcrossBatchesAndPolls: a STRING rule keeps matching the
// right tuples when a poll spans several batches and when the next poll
// brings other strings in the same positions.
func TestStringRuleAcrossBatchesAndPolls(t *testing.T) {
	_, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	var got []string
	if err := m.OnMatch("web", "host LIKE 'web-%'", func(e Event) { got = append(got, e.Tuple.Attrs[0].AsString()) }); err != nil {
		t.Fatal(err)
	}
	for _, hosts := range [][]string{{"web-1", "db-1", "web-2"}, {"db-2", "web-3", "cache"}} {
		got = nil
		want := 0
		for i := 0; i < 2500; i++ {
			h := hosts[i%len(hosts)]
			if strings.HasPrefix(h, "web-") {
				want++
			}
			if _, err := tbl.Insert(core.Row(h, i)); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := m.Poll(); err != nil || n != want || len(got) != want {
			t.Fatalf("hosts %v: Poll = %d, %v with %d events, want %d", hosts, n, err, len(got), want)
		}
		for _, h := range got {
			if !strings.HasPrefix(h, "web-") {
				t.Fatalf("hosts %v: rule fired for %q", hosts, h)
			}
		}
	}
}

func TestMissedCountsDecayedTuples(t *testing.T) {
	db, tbl := newTable(t, fungus.Linear{Rate: 1.0}) // everything rots next tick
	m := NewMonitor(tbl)
	m.OnMatch("all", "", func(Event) {})

	tbl.Insert(core.Row("a", 1))
	tbl.Insert(core.Row("b", 2))
	db.Tick() // both rot before the monitor ever polls
	if _, err := m.Poll(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Polled != 0 || st.Missed != 2 {
		t.Errorf("stats = %+v (want 2 missed)", st)
	}
	// Data cooked in time is not missed.
	tbl.Insert(core.Row("c", 3))
	m.Poll()
	st = m.Stats()
	if st.Polled != 1 || st.Missed != 2 {
		t.Errorf("stats after timely poll = %+v", st)
	}
}

func TestWindowStats(t *testing.T) {
	db, tbl := newTable(t, nil)
	m := NewMonitor(tbl)
	// t0: sev 1 and 3; t5: sev 5.
	tbl.Insert(core.Row("a", 1))
	tbl.Insert(core.Row("a", 3))
	for i := 0; i < 5; i++ {
		db.Tick()
	}
	tbl.Insert(core.Row("a", 5))

	// Window of 2 ticks: only the t5 tuple.
	p, err := m.WindowStats("sev", 2, db.Now())
	if err != nil {
		t.Fatal(err)
	}
	if p.Count != 1 || p.Sum != 5 {
		t.Errorf("narrow window = %+v", p)
	}
	// Window of 100 ticks: everything.
	p, err = m.WindowStats("sev", 100, db.Now())
	if err != nil {
		t.Fatal(err)
	}
	if p.Count != 3 || p.Sum != 9 || p.Mean != 3 || p.Min != 1 || p.Max != 5 {
		t.Errorf("wide window = %+v", p)
	}
	if _, err := m.WindowStats("host", 10, db.Now()); err == nil {
		t.Error("window over string column accepted")
	}
}

func TestWindowStatsRespectsDecay(t *testing.T) {
	db, tbl := newTable(t, fungus.TTL{Lifetime: 3})
	m := NewMonitor(tbl)
	tbl.Insert(core.Row("a", 10))
	for i := 0; i < 4; i++ {
		db.Tick() // tuple rots at age 3
	}
	p, err := m.WindowStats("sev", 100, db.Now())
	if err != nil {
		t.Fatal(err)
	}
	if p.Count != 0 {
		t.Errorf("rotted tuple still visible in window: %+v", p)
	}
}

// TestMonitorKeepsPlanCacheSmall: Poll and WindowStats bind their bounds
// into prepared statements instead of compiling a new WHERE per call,
// so a monitored table's plan cache neither grows with the monitor's
// rounds nor evicts the table's other statements.
func TestMonitorKeepsPlanCacheSmall(t *testing.T) {
	db, tbl := newTable(t, nil)
	const user = "SELECT host, COUNT(*) AS n FROM logs GROUP BY host"
	if _, err := tbl.Prepare(user); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(tbl)
	if err := m.OnMatch("all", "", func(Event) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tbl.Insert(core.Row("web-1", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.WindowStats("sev", 5, db.Now()); err != nil {
			t.Fatal(err)
		}
	}
	hits, _, _ := tbl.PlanCacheStats()
	if _, err := tbl.Prepare(user); err != nil {
		t.Fatal(err)
	}
	again, _, size := tbl.PlanCacheStats()
	if again != hits+1 {
		t.Errorf("re-preparing %q missed the plan cache: the monitor evicted it", user)
	}
	if size > 3 {
		t.Errorf("plan cache holds %d entries after 200 monitor rounds, want <= 3", size)
	}
	if st := m.Stats(); st.Polled != 200 || st.Fired != 200 {
		t.Errorf("stats = %+v, want 200 polled and fired", st)
	}
}
