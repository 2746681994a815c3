package container

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"fungusdb/internal/sketch"
	"fungusdb/internal/tuple"
)

// ErrNoContainer reports a question to a container that does not exist
// (or has rotted away).
var ErrNoContainer = errors.New("container: no such container")

// Op enumerates the digest questions.
type Op uint8

// Digest questions.
const (
	OpCount    Op = iota // count          -> absorbed tuples
	OpNDV                // ndv:col        -> distinct values (HLL)
	OpMean               // mean:col       -> running mean
	OpSum                // sum:col        -> running sum
	OpQuantile           // q:col:p        -> p-quantile estimate
	OpTop                // top:col[:k]    -> heavy hitters
	OpHas                // has:col:value  -> Bloom membership
)

// forms gives each question's name, its written form and how many
// ":"-separated parts it has (top takes one more, its k).
var forms = [...]struct {
	name, form string
	parts      int
}{
	OpCount:    {"count", "count", 1},
	OpNDV:      {"ndv", "ndv:<col>", 2},
	OpMean:     {"mean", "mean:<col>", 2},
	OpSum:      {"sum", "sum:<col>", 2},
	OpQuantile: {"q", "q:<col>:<0..1>", 3},
	OpTop:      {"top", "top:<col>[:k]", 2},
	OpHas:      {"has", "has:<col>:<value>", 3},
}

// Question is a digest question checked against a table's schema.
type Question struct {
	Op    Op
	Col   string      // every question but count
	P     float64     // q: the quantile, in [0, 1]
	K     int         // top: how many heavy hitters
	Value tuple.Value // has: the operand, in the column's kind
}

// Answer is a question's answer: Value for count, ndv, mean, sum and
// q, Top for top, Has for has.
type Answer struct {
	Op    Op
	Value float64
	Top   []sketch.Entry
	Has   bool
}

// ParseQuestion parses a digest question and checks it against schema:
//
//	count | ndv:<col> | mean:<col> | sum:<col> | q:<col>:<0..1>
//	      | top:<col>[:k] | has:<col>:<value>
//
// Every form but count names a column of schema. top lists 10 heavy
// hitters unless k is given; a has operand is parsed in the column's
// kind (tuple.ParseValue). Whether the column's kind suits the question
// (the mean of a STRING column) is the digest's to say, at Ask.
func ParseQuestion(schema *tuple.Schema, q string) (Question, error) {
	parts := strings.Split(q, ":")
	op := Op(0)
	for op < Op(len(forms)) && forms[op].name != parts[0] {
		op++
	}
	if op == Op(len(forms)) {
		return Question{}, fmt.Errorf("container: unknown question %q", q)
	}
	f := forms[op]
	n := len(parts)
	if n != f.parts && !(op == OpTop && n == 3) || n > 1 && parts[1] == "" {
		return Question{}, fmt.Errorf("container: %s wants %s", f.name, f.form)
	}
	qn := Question{Op: op}
	kind := tuple.KindInvalid
	if op != OpCount {
		qn.Col = parts[1]
		i := schema.Index(qn.Col)
		if i < 0 {
			return Question{}, fmt.Errorf("container: unknown column %q (schema: %s)", qn.Col, schema)
		}
		kind = schema.Column(i).Kind
	}
	switch op {
	case OpQuantile:
		p, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return Question{}, fmt.Errorf("container: bad quantile %q (want 0..1)", parts[2])
		}
		qn.P = p
	case OpTop:
		qn.K = 10
		if n == 3 {
			k, err := strconv.Atoi(parts[2])
			if err != nil || k < 1 {
				return Question{}, fmt.Errorf("container: bad top-k %q", parts[2])
			}
			qn.K = k
		}
	case OpHas:
		v, err := tuple.ParseValue(kind, parts[2])
		if err != nil {
			return Question{}, fmt.Errorf("container: column %q: %w", qn.Col, err)
		}
		qn.Value = v
	}
	return qn, nil
}

// answer evaluates q against the digest.
func (d *Digest) answer(q Question) (Answer, error) {
	a := Answer{Op: q.Op}
	var err error
	switch q.Op {
	case OpCount:
		a.Value = float64(d.count)
	case OpNDV:
		var n uint64
		n, err = d.NDV(q.Col)
		a.Value = float64(n)
	case OpMean:
		a.Value, err = d.Mean(q.Col)
	case OpSum:
		a.Value, err = d.Sum(q.Col)
	case OpQuantile:
		a.Value, err = d.Quantile(q.Col, q.P)
	case OpTop:
		a.Top, err = d.HeavyHitters(q.Col, q.K)
	case OpHas:
		a.Has, err = d.MayContain(q.Col, q.Value)
	default:
		err = fmt.Errorf("container: bad question op %d", q.Op)
	}
	return a, err
}
