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

// Rules own their row matchers (scratch state, one goroutine at a
// time): Poll evaluates them under the monitor's mutex.
type matchRule struct {
	name string
	pred *query.RowMatcher
	act  Action
}

type seqRule struct {
	name   string
	first  *query.RowMatcher
	then   *query.RowMatcher
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

	polled  uint64
	fired   uint64
	missed  uint64 // IDs that vanished before being seen
	lastNow clock.Tick
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
	m.rules = append(m.rules, &matchRule{name: name, pred: pred.NewRowMatcher(), act: act})
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
	m.seqs = append(m.seqs, &seqRule{name: name, first: first.NewRowMatcher(), then: then.NewRowMatcher(), within: within, act: act})
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
// engine tick (or batch of inserts).
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

	for _, row := range fresh {
		tp := core.RowTuple(row)
		m.polled++
		for _, r := range m.rules {
			ok, err := r.pred.Match(&tp)
			if err != nil {
				return fired, fmt.Errorf("stream: rule %q: %w", r.name, err)
			}
			if ok {
				r.act(Event{Rule: r.name, Tuple: tp.Clone(), At: tp.T})
				m.fired++
				fired++
			}
		}
		for _, s := range m.seqs {
			if err := m.stepSequence(s, &tp, &fired); err != nil {
				return fired, err
			}
		}
		m.lastNow = tp.T
	}
	return fired, nil
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

func (m *Monitor) stepSequence(s *seqRule, tp *tuple.Tuple, fired *int) error {
	// Expire pending firsts that fell out of the window.
	live := s.pending[:0]
	for _, ft := range s.pending {
		if uint64(tp.T-ft) <= s.within {
			live = append(live, ft)
		}
	}
	s.pending = live

	isThen, err := s.then.Match(tp)
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
		return nil
	}
	isFirst, err := s.first.Match(tp)
	if err != nil {
		return fmt.Errorf("stream: rule %q: %w", s.name, err)
	}
	if isFirst {
		s.pending = append(s.pending, tp.T)
	}
	return nil
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
