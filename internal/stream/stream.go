// Package stream adds the continuous-query layer the paper's conclusion
// points at: the proposed steps are "fundamental to streaming database
// systems, or Complex Event Processing systems". A Monitor attaches
// standing rules to a table and evaluates them incrementally:
//
//   - OnMatch fires an action for every new tuple satisfying a
//     predicate (simple event rules).
//   - OnSequence fires when a tuple matching a second predicate arrives
//     within a tick window after one matching a first predicate (the
//     minimal "complex" event: A followed by B).
//   - WindowStats computes sliding-window aggregates over recent ticks.
//
// Rules see each tuple exactly once, in insertion order, regardless of
// how often Poll runs — the Monitor keeps a high-water mark over the
// table's ID axis. Because the substrate decays, a tuple that rots (or
// is consumed) before the next Poll is genuinely missed; that is the
// semantics the paper prescribes — data not cooked in time is gone —
// and the Missed counter makes the loss observable.
//
// A Monitor reads its table through the prepared-statement path like
// every other reader: Poll executes one statement bound to the
// high-water mark, WindowStats one per aggregated column bound to the
// window's first tick, so a monitored table's plan cache holds a fixed
// handful of entries however often the monitor runs.
package stream

import (
	"fmt"
	"sync"

	"fungusdb/internal/clock"
	"fungusdb/internal/core"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

// Event is one rule firing.
type Event struct {
	Rule string
	// Tuple is the matching tuple, rebuilt from the row Poll read (see
	// core.RowTuple: Infected is not readable and always false).
	Tuple tuple.Tuple
	// First is the earlier tuple of a sequence rule (zero otherwise).
	First tuple.Tuple
	At    clock.Tick
}

// Action consumes an event. Actions run synchronously inside Poll, in
// tuple order; they must not call back into the Monitor or the table's
// mutating methods.
type Action func(Event)

// verdict is one predicate's answer over the batch Poll filled: its
// matcher, the selection bitmap, the first erroring row and that row's
// error (see query.BatchMatcher.Match). The bitmap is matcher scratch,
// valid until the matcher runs again.
type verdict struct {
	m      *query.BatchMatcher
	sel    []uint64
	errRow int
	err    error
}

func newVerdict(p *query.Predicate) verdict { return verdict{m: p.NewBatchMatcher()} }

func (v *verdict) match(b *tuple.Batch) { v.sel, v.errRow, v.err = v.m.Match(b) }

// at reports whether row j matched, or the error the predicate raised
// on that row.
func (v *verdict) at(j int) (bool, error) {
	if v.err != nil && j == v.errRow {
		return false, v.err
	}
	return v.sel[j>>6]&(1<<uint(j&63)) != 0, nil
}

// Rules own their matchers (scratch state, one goroutine at a time):
// Poll evaluates them under the monitor's mutex.
type matchRule struct {
	name string
	pred verdict
	act  Action
}

type seqRule struct {
	name   string
	first  verdict
	then   verdict
	within uint64
	act    Action
	// pending holds ticks of unconsumed 'first' events.
	pending []clock.Tick
}

// Monitor evaluates standing rules over one table.
type Monitor struct {
	mu    sync.Mutex
	tbl   *core.Table
	since *core.PreparedQuery // tuples above a bound ID; prepared on first Poll
	hwm   int64               // highest tuple ID already processed
	rules []*matchRule
	seqs  []*seqRule

	batch tuple.Batch // the fresh rows Poll evaluates the rules over

	polled uint64
	fired  uint64
	missed uint64 // IDs that vanished before being seen
}

// NewMonitor attaches a monitor to tbl. Rules added afterwards only see
// tuples inserted after attachment.
func NewMonitor(tbl *core.Table) *Monitor {
	return &Monitor{tbl: tbl, hwm: -1}
}

// OnMatch registers a simple rule: act fires once for every new tuple
// satisfying where.
func (m *Monitor) OnMatch(name, where string, act Action) error {
	pred, err := query.Compile(where, m.tbl.Schema())
	if err != nil {
		return err
	}
	if act == nil {
		return fmt.Errorf("stream: rule %q needs an action", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules = append(m.rules, &matchRule{name: name, pred: newVerdict(pred), act: act})
	return nil
}

// OnSequence registers a complex rule: act fires when a tuple matching
// thenWhere arrives at most within ticks after a tuple matching
// firstWhere. Each 'first' arms at most one firing (earliest pending
// first wins).
func (m *Monitor) OnSequence(name, firstWhere, thenWhere string, within uint64, act Action) error {
	first, err := query.Compile(firstWhere, m.tbl.Schema())
	if err != nil {
		return err
	}
	then, err := query.Compile(thenWhere, m.tbl.Schema())
	if err != nil {
		return err
	}
	if act == nil {
		return fmt.Errorf("stream: rule %q needs an action", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seqs = append(m.seqs, &seqRule{name: name, first: newVerdict(first), then: newVerdict(then), within: within, act: act})
	return nil
}

// Stats reports monitor counters.
type Stats struct {
	Polled uint64 // tuples processed through rules
	Fired  uint64 // rule firings
	Missed uint64 // tuples that decayed away unseen
}

// Stats returns a snapshot.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Polled: m.polled, Fired: m.fired, Missed: m.missed}
}

// Poll processes every tuple inserted since the previous Poll through
// all rules, returning the number of rule firings. Call it after each
// engine tick (or batch of inserts). Rules fire tuple by tuple, and
// within a tuple in registration order, OnMatch rules before sequence
// rules. The first error in that order ends the Poll; the tuples it
// read are not read again.
func (m *Monitor) Poll() (fired int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fresh, err := m.newRows()
	if err != nil {
		return 0, err
	}
	// Note what vanished without being seen: the allocated ID range
	// advanced further than the live tuples we got back. (Tuples that
	// rotted or were consumed between polls are counted missed.)
	if top := int64(m.tbl.StoreStats().Inserted) - 1; top > m.hwm {
		span := top - m.hwm
		m.missed += uint64(span - int64(len(fresh)))
		m.hwm = top
	}

	tps := make([]tuple.Tuple, 0, min(len(fresh), tuple.BatchRows))
	for len(fresh) > 0 {
		tps = tps[:0]
		for _, row := range fresh[:min(len(fresh), tuple.BatchRows)] {
			tps = append(tps, core.RowTuple(row))
		}
		fresh = fresh[len(tps):]
		if err := m.pollBatch(tps, &fired); err != nil {
			return fired, err
		}
	}
	return fired, nil
}

// pollBatch runs every rule's predicates once over tps, laid out as one
// batch, then replays the verdicts tuple by tuple. Caller holds m.mu.
func (m *Monitor) pollBatch(tps []tuple.Tuple, fired *int) error {
	b := &m.batch
	b.Fill(m.tbl.Schema(), tps)
	for _, r := range m.rules {
		r.pred.match(b)
	}
	for _, s := range m.seqs {
		s.then.match(b)
		s.first.match(b)
	}
	for j := range tps {
		tp := &tps[j]
		m.polled++
		for _, r := range m.rules {
			ok, err := r.pred.at(j)
			if err != nil {
				return fmt.Errorf("stream: rule %q: %w", r.name, err)
			}
			if ok {
				r.act(Event{Rule: r.name, Tuple: tp.Clone(), At: tp.T})
				m.fired++
				*fired++
			}
		}
		for _, s := range m.seqs {
			if err := m.stepSequence(s, b, j, tp, fired); err != nil {
				return err
			}
		}
	}
	return nil
}

// newRows reads every live tuple above the high-water mark, in ID
// order, as core.SelectTuples rows. The answer is drained before any
// rule runs, so actions never execute while the scan holds shard locks.
// Caller holds m.mu.
func (m *Monitor) newRows() ([][]tuple.Value, error) {
	if m.since == nil {
		pq, err := m.tbl.Prepare(core.SelectTuples(m.tbl.Name(), false, tuple.SysID+" > ?"))
		if err != nil {
			return nil, err
		}
		m.since = pq
	}
	rows, err := m.since.Execute(tuple.Int(m.hwm))
	if err != nil {
		return nil, err
	}
	var fresh [][]tuple.Value
	for rows.Next() {
		fresh = append(fresh, rows.Values())
	}
	return fresh, rows.Close()
}

// stepSequence advances s over row j of b, the tuple tp.
func (m *Monitor) stepSequence(s *seqRule, b *tuple.Batch, j int, tp *tuple.Tuple, fired *int) error {
	// Expire pending firsts that fell out of the window.
	live := s.pending[:0]
	for _, ft := range s.pending {
		if uint64(tp.T-ft) <= s.within {
			live = append(live, ft)
		}
	}
	s.pending = live

	isThen, err := s.then.at(j)
	if err != nil {
		return fmt.Errorf("stream: rule %q: %w", s.name, err)
	}
	if isThen && len(s.pending) > 0 {
		first := s.pending[0]
		s.pending = s.pending[1:]
		s.act(Event{
			Rule:  s.name,
			Tuple: tp.Clone(),
			First: tuple.Tuple{T: first},
			At:    tp.T,
		})
		m.fired++
		*fired++
		if s.first.err != nil && j == s.first.errRow {
			// 'first' does not count on this row, so its error does not
			// either — but the batch program cleared its verdicts above
			// the row. Evaluate it again over the rows after this one.
			clearThrough(b, j)
			s.first.match(b)
		}
		return nil
	}
	isFirst, err := s.first.at(j)
	if err != nil {
		return fmt.Errorf("stream: rule %q: %w", s.name, err)
	}
	if isFirst {
		s.pending = append(s.pending, tp.T)
	}
	return nil
}

// clearThrough marks rows 0..j of b dead, so a matcher run again
// evaluates only the rows after j. Poll owns the batch, and every
// verdict on rows up to j is already taken.
func clearThrough(b *tuple.Batch, j int) {
	clear(b.Live[:j>>6])
	b.Live[j>>6] &^= 1<<uint(j&63+1) - 1
	b.Alive = tuple.PopCount(b.Live)
}

// WindowPoint is one sliding-window aggregate sample.
type WindowPoint struct {
	At    clock.Tick
	Count uint64
	Sum   float64
	Mean  float64
	Min   float64
	Max   float64
}

// WindowStats aggregates col over tuples inserted in the last width
// ticks (inclusive of the current tick). It reads the live extent, so
// rotted tuples are — correctly — absent. An empty window reports zeros.
// The figures are SQL aggregates: over several shards, Sum and Mean add
// per-shard partial sums.
func (m *Monitor) WindowStats(col string, width uint64, now clock.Tick) (WindowPoint, error) {
	lo := uint64(0)
	if uint64(now) > width {
		lo = uint64(now) - width
	}
	pq, err := m.tbl.Prepare(fmt.Sprintf("SELECT COUNT(*), SUM(%[1]s), AVG(%[1]s), MIN(%[1]s), MAX(%[1]s) FROM %[2]s WHERE %[3]s >= ?",
		col, m.tbl.Name(), tuple.SysTick))
	if err != nil {
		return WindowPoint{}, err
	}
	rows, err := pq.Execute(tuple.Int(int64(lo)))
	if err != nil {
		return WindowPoint{}, err
	}
	var agg []tuple.Value
	for rows.Next() {
		agg = rows.Values()
	}
	if err := rows.Close(); err != nil {
		return WindowPoint{}, err
	}
	p := WindowPoint{At: now, Count: uint64(agg[0].AsInt()), Sum: agg[1].AsFloat(), Mean: agg[2].AsFloat()}
	// MIN and MAX of an empty window are unset; Numeric reads them as 0.
	p.Min, _ = agg[3].Numeric()
	p.Max, _ = agg[4].Numeric()
	return p, nil
}
