// Command fungusctl is an interactive (and scriptable) shell over a
// FungusDB instance. It reads commands from stdin, one per line:
//
//	create <table> <name KIND, ...> [fungus=egi|ttl|linear|none] [rate=F] [shards=N] [durability=none|grouped|strict] [distill]
//	insert <table> <v1> <v2> ...
//	query  <table> peek|consume [into=<container>] [<where...>]
//	tick   [n]
//	stats  <table>
//	series <table> [buckets]
//	containers <table>
//	ask    <table> <container> <question>
//	tables
//	help
//	quit
//
// A question is one of the server's ask forms (container.ParseQuestion):
// count, ndv:<col>, mean:<col>, sum:<col>, q:<col>:<0..1>, top:<col>[:k]
// (10 unless k is given) or has:<col>:<value>.
//
// With -dir the instance is persistent: state survives restarts.
//
// With -addr pointing at a fungusd server, the `query` subcommand runs
// one statement remotely over the streaming v2 API and prints rows as
// they arrive:
//
//	fungusctl -addr http://localhost:8044 query "SELECT * FROM t WHERE x > ?" 42
//
// and the `stats` subcommand fetches a table's stats remotely — against
// a replication follower that includes its replication position and lag:
//
//	fungusctl -addr http://follower:8045 stats events
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"fungusdb/internal/container"
	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/obs"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
	"fungusdb/internal/workload"
	"fungusdb/pkg/client"
)

var defaultShards = flag.Int("shards", 1, "default shard count for created tables (create ... shards=N overrides)")

func main() {
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	addr := flag.String("addr", "", "fungusd base URL for remote subcommands (e.g. http://localhost:8044)")
	durability := flag.String("durability", "none", "default WAL sync level for persistent tables: none|grouped|strict (create ... durability=L overrides)")
	groupInterval := flag.Duration("group-commit-interval", 0, "grouped-durability flush tick (0 = 2ms default)")
	groupSize := flag.Int("group-commit-size", 0, "records per group-commit window before an early flush (0 = 512 default)")
	flag.Parse()

	if flag.NArg() > 0 && flag.Arg(0) == "query" {
		if err := remoteQuery(*addr, flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "fungusctl:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 && flag.Arg(0) == "stats" && *addr != "" {
		if err := remoteStats(os.Stdout, *addr, flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "fungusctl:", err)
			os.Exit(1)
		}
		return
	}

	level, err := wal.ParseDurability(*durability)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fungusctl:", err)
		os.Exit(1)
	}
	db, err := core.Open(core.DBConfig{
		Seed: *seed, Dir: *dir,
		Durability: level, GroupCommitInterval: *groupInterval, GroupCommitSize: *groupSize,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fungusctl:", err)
		os.Exit(1)
	}
	defer db.Close()

	sh := &shell{db: db, persist: *dir != "", out: os.Stdout}
	sh.repl(os.Stdin)
}

// remoteQuery streams one statement from a fungusd server: prepare the
// SQL, bind any trailing arguments as positional parameters, print
// rows as the NDJSON stream delivers them.
func remoteQuery(addr string, args []string) error {
	if addr == "" {
		return fmt.Errorf("query subcommand needs -addr <fungusd URL>")
	}
	if len(args) < 1 {
		return fmt.Errorf("usage: fungusctl -addr URL query <sql> [param ...]")
	}
	sql := args[0]
	params := make([]any, 0, len(args)-1)
	for _, raw := range args[1:] {
		params = append(params, parseParam(raw))
	}
	c := client.New(addr, nil)
	stmt, err := c.Prepare(sql)
	if err != nil {
		return err
	}
	rows, err := stmt.Query(params...)
	if err != nil {
		return err
	}
	defer rows.Close()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, strings.Join(rows.Cols(), "\t"))
	for rows.Next() {
		cells := rows.Row()
		for i, v := range cells {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprintf(w, "%v", v)
		}
		fmt.Fprintln(w)
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "(%d rows, %d scanned)\n", rows.Count(), rows.Scanned())
	return nil
}

// remoteStats prints a table's stats from a fungusd server. Against a
// replication follower the server attaches the table's replication
// position, rendered here field by field from the wire JSON — the
// generic walk (rather than a hand-picked subset) means a new
// replication stat can never silently miss the CLI, which the parity
// test in main_test.go pins down.
func remoteStats(w io.Writer, addr string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: fungusctl -addr URL stats <table>")
	}
	c := client.New(addr, nil)
	st, err := c.Stats(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "live %d over %d shards, %d bytes, mean freshness %.3f\n",
		st.Live, st.Shards, st.Bytes, st.MeanFresh)
	fmt.Fprintf(w, "inserted %d, rotted %d, consumed %d, queries %d, ticks %d\n",
		st.Inserted, st.Rotted, st.Consumed, st.Queries, st.Ticks)
	if st.Persistent {
		fmt.Fprintf(w, "wal: sync mode %s\n", st.WALSyncMode)
	}
	if st.Replication != nil {
		fmt.Fprintln(w, "replication:")
		data, err := json.Marshal(st.Replication)
		if err != nil {
			return err
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			return err
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s %v\n", k, m[k])
		}
	}
	return nil
}

// parseParam types a CLI parameter: int, then float, then bool, else
// string.
func parseParam(raw string) any {
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return f
	}
	if raw == "true" || raw == "false" {
		return raw == "true"
	}
	return raw
}

type shell struct {
	db      *core.DB
	persist bool
	out     io.Writer
}

func (s *shell) repl(in io.Reader) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(s.out, "fungusdb shell — 'help' for commands")
	for {
		fmt.Fprint(s.out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(s.out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := s.exec(line); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	}
}

func (s *shell) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprint(s.out, helpText)
		return nil
	case "tables":
		for _, n := range s.db.Tables() {
			fmt.Fprintln(s.out, n)
		}
		return nil
	case "create":
		return s.create(args, line)
	case "insert":
		return s.insert(args)
	case "query":
		return s.query(args)
	case "tick":
		return s.tick(args)
	case "stats":
		return s.stats(args)
	case "series":
		return s.series(args)
	case "containers":
		return s.containers(args)
	case "ask":
		return s.ask(args)
	case "sql", "select", "SELECT":
		return s.sql(line)
	case "load":
		return s.load(args)
	case "dump":
		return s.dump(args)
	case "drop":
		if len(args) != 1 {
			return fmt.Errorf("usage: drop <table>")
		}
		if err := s.db.DropTable(args[0]); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "dropped %s\n", args[0])
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

const helpText = `commands:
  create <table> <name KIND, ...> [fungus=egi|ttl|linear|none] [rate=F] [shards=N] [durability=none|grouped|strict] [distill]
  insert <table> <v1> <v2> ...
  query  <table> peek|consume [into=<container>] [<where...>]
  tick   [n]
  stats  <table>
  series <table> [buckets]
  containers <table>
  ask    <table> <container> count|ndv:<col>|mean:<col>|sum:<col>|q:<col>:<0..1>|top:<col>[:k]|has:<col>:<value>
         (the server's question forms: q:<col>:0.5 is the median, top lists 10 unless k is given)
  sql    SELECT [CONSUME] <targets> FROM <table> [WHERE ..] [GROUP BY ..] [ORDER BY ..] [LIMIT n]
  load   <table> iot|clickstream|syslog <n>   (table is created if missing)
  dump   <table> <file.csv> [where...]
  drop   <table>
  tables
  quit
`

// load bulk-generates workload rows into a table, creating the table
// with the workload's schema when it does not exist yet.
func (s *shell) load(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: load <table> iot|clickstream|syslog <n>")
	}
	n, err := strconv.Atoi(args[2])
	if err != nil || n < 1 {
		return fmt.Errorf("bad row count %q", args[2])
	}
	var gen workload.Generator
	switch args[1] {
	case "iot":
		gen = workload.NewIoT(100, 1)
	case "clickstream":
		gen = workload.NewClickstream(10000, 500, 1)
	case "syslog":
		gen = workload.NewSyslog(16, 1)
	default:
		return fmt.Errorf("unknown workload %q", args[1])
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		if tbl, err = s.db.CreateTable(args[0], core.TableConfig{
			Schema:  gen.Schema(),
			Shards:  *defaultShards,
			Persist: s.persist,
		}); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "created %s(%s)\n", args[0], gen.Schema())
	} else if !tbl.Schema().Equal(gen.Schema()) {
		return fmt.Errorf("table %s schema (%s) does not match workload (%s)", args[0], tbl.Schema(), gen.Schema())
	}
	// Batched inserts: one shard-lock round per batch instead of per row.
	const loadBatch = 1024
	for done := 0; done < n; {
		b := loadBatch
		if rem := n - done; rem < b {
			b = rem
		}
		rows := make([][]tuple.Value, b)
		for i := range rows {
			rows[i] = gen.Next()
		}
		if _, err := tbl.InsertBatch(rows); err != nil {
			return err
		}
		done += b
	}
	fmt.Fprintf(s.out, "loaded %d %s rows into %s (extent %d)\n", n, args[1], args[0], tbl.Len())
	return nil
}

// dump writes the live extent (optionally filtered) as CSV with _id,
// _t and _f columns prepended.
func (s *shell) dump(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: dump <table> <file.csv> [where...]")
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		return err
	}
	g, err := tbl.SQL(core.SelectTuples(tbl.Name(), false, strings.Join(args[2:], " ")))
	if err != nil {
		return err
	}
	f, err := os.Create(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(g.Cols); err != nil {
		return err
	}
	for _, row := range g.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			if v.Kind() == tuple.KindString {
				rec[i] = v.AsString()
			} else {
				rec[i] = v.String()
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "dumped %d rows to %s\n", len(g.Rows), args[1])
	return nil
}

func (s *shell) sql(line string) error {
	src := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "sql"))
	stmt, err := query.ParseSelect(src)
	if err != nil {
		return err
	}
	tbl, err := s.db.Table(stmt.From)
	if err != nil {
		return err
	}
	g, err := tbl.SQL(src)
	if err != nil {
		return err
	}
	g.Render(s.out)
	fmt.Fprintf(s.out, "(%d rows)\n", len(g.Rows))
	return nil
}

func (s *shell) create(args []string, line string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: create <table> <schema> [options]")
	}
	name := args[0]

	// Separate trailing option tokens from the schema spec.
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(line, "create")), name))
	fungusName, rate, distill, shards := "none", 0.05, false, *defaultShards
	durability := wal.DurabilityDefault
	for {
		idx := strings.LastIndex(rest, " ")
		if idx < 0 {
			break
		}
		tok := rest[idx+1:]
		switch {
		case tok == "distill":
			distill = true
		case strings.HasPrefix(tok, "fungus="):
			fungusName = strings.TrimPrefix(tok, "fungus=")
		case strings.HasPrefix(tok, "rate="):
			f, err := strconv.ParseFloat(strings.TrimPrefix(tok, "rate="), 64)
			if err != nil {
				return fmt.Errorf("bad rate: %v", err)
			}
			rate = f
		case strings.HasPrefix(tok, "shards="):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "shards="))
			if err != nil || n < 1 {
				return fmt.Errorf("bad shards %q", strings.TrimPrefix(tok, "shards="))
			}
			shards = n
		case strings.HasPrefix(tok, "durability="):
			d, err := wal.ParseDurability(strings.TrimPrefix(tok, "durability="))
			if err != nil {
				return err
			}
			durability = d
		default:
			idx = -1
		}
		if idx < 0 {
			break
		}
		rest = strings.TrimSpace(rest[:idx])
	}

	schema, err := tuple.ParseSchema(rest)
	if err != nil {
		return err
	}
	var f fungus.Fungus
	switch fungusName {
	case "none":
		f = fungus.Null{}
	case "egi":
		f = fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 1, DecayRate: rate, AgeBias: 2})
	case "ttl":
		f = fungus.TTL{Lifetime: uint64(1 / rate)}
	case "linear":
		f = fungus.Linear{Rate: rate}
	default:
		return fmt.Errorf("unknown fungus %q", fungusName)
	}
	_, err = s.db.CreateTable(name, core.TableConfig{
		Schema:       schema,
		Fungus:       f,
		Shards:       shards,
		DistillOnRot: distill,
		Durability:   durability,
		Persist:      s.persist,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "created %s(%s) fungus=%s\n", name, schema, f.Name())
	return nil
}

func (s *shell) insert(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: insert <table> <values...>")
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		return err
	}
	schema := tbl.Schema()
	if len(args)-1 != schema.Len() {
		return fmt.Errorf("table %s wants %d values, got %d", args[0], schema.Len(), len(args)-1)
	}
	vals := make([]tuple.Value, schema.Len())
	for i := range vals {
		if vals[i], err = tuple.ParseValue(schema.Column(i).Kind, args[i+1]); err != nil {
			return fmt.Errorf("column %s: %v", schema.Column(i).Name, err)
		}
	}
	tp, err := tbl.Insert(vals)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "inserted id=%d t=%s\n", tp.ID, tp.T)
	return nil
}

func (s *shell) query(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: query <table> peek|consume [into=<c>] [where]")
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		return err
	}
	var mode query.Mode
	switch args[1] {
	case "peek":
		mode = query.Peek
	case "consume":
		mode = query.Consume
	default:
		return fmt.Errorf("mode must be peek or consume")
	}
	rest := args[2:]
	var opts core.QueryOpts
	if len(rest) > 0 && strings.HasPrefix(rest[0], "into=") {
		opts.Distill = strings.TrimPrefix(rest[0], "into=")
		rest = rest[1:]
	}
	pq, err := tbl.Prepare(core.SelectTuples(tbl.Name(), mode == query.Consume, strings.Join(rest, " ")))
	if err != nil {
		return err
	}
	rows, err := pq.ExecuteOpts(opts)
	if err != nil {
		return err
	}
	const limit = 20
	n, mass := 0, 0.0
	for ; rows.Next(); n++ {
		tp := core.RowTuple(rows.Values())
		mass += float64(tp.F)
		if n < limit {
			fmt.Fprintln(s.out, tp.String())
		}
	}
	if err := rows.Close(); err != nil {
		return err
	}
	if n > limit {
		fmt.Fprintf(s.out, "... (%d more)\n", n-limit)
	}
	mean := 0.0
	if n > 0 {
		mean = mass / float64(n)
	}
	fmt.Fprintf(s.out, "%d tuples (%s, scanned %d, mean freshness %.3f)\n",
		n, mode, rows.Scanned(), mean)
	return nil
}

func (s *shell) tick(args []string) error {
	n := 1
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 {
			return fmt.Errorf("tick wants a positive count")
		}
		n = v
	}
	totalRot := 0
	for i := 0; i < n; i++ {
		rep, err := s.db.Tick()
		if err != nil {
			return err
		}
		totalRot += rep.TotalRot
	}
	fmt.Fprintf(s.out, "now %s, %d tuples rotted\n", s.db.Now(), totalRot)
	return nil
}

func (s *shell) stats(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: stats <table>")
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, tbl.Profile())
	fmt.Fprintln(s.out, tbl.Counters())
	st := tbl.StoreStats()
	fmt.Fprintf(s.out, "segments: %d live / %d total, %d dropped\n", st.SegsLive, st.SegsTotal, st.SegsDropped)
	if st.SegsPruned > 0 {
		fmt.Fprintf(s.out, "pruning: %d segments skipped (%d tuples never examined)\n", st.SegsPruned, st.TuplesSkipped)
	}
	if st.BatchesScanned > 0 {
		fmt.Fprintf(s.out, "vectorized: %d batches scanned (%d rows evaluated kernel-wise)\n", st.BatchesScanned, st.RowsVectorized)
	}
	if wi := tbl.WALInfo(); wi.Persistent {
		fmt.Fprintf(s.out, "wal: %d shard logs, snapshot generation %d, sync mode %s\n",
			wi.LogShards, wi.Generation, wi.SyncMode)
		if wi.GroupCommits > 0 {
			fmt.Fprintf(s.out, "group commits: %d (avg %.1f records/fsync)\n", wi.GroupCommits, wi.AvgGroupSize)
		}
	}

	// The metric view: the same engine walk the /metrics endpoint
	// scrapes, filtered to this table. Rendering the shared catalog here
	// (rather than a hand-maintained list) keeps the CLI and the scrape
	// from ever drifting apart.
	fmt.Fprintln(s.out, "metrics:")
	for _, fam := range obs.CollectEngine(s.db) {
		for _, sm := range fam.Samples {
			onTable := false
			for _, l := range sm.Labels {
				if l.Name == "table" && l.Value == args[0] {
					onTable = true
					break
				}
			}
			if !onTable {
				continue
			}
			fmt.Fprintf(s.out, "  %s %s\n", obs.SampleName(fam, sm, "table"), obs.FormatValue(sm.Value))
		}
	}
	return nil
}

func (s *shell) series(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: series <table> [buckets]")
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		return err
	}
	buckets := 10
	if len(args) > 1 {
		if buckets, err = strconv.Atoi(args[1]); err != nil || buckets < 1 {
			return fmt.Errorf("bad bucket count")
		}
	}
	for _, b := range tbl.TimeSeries(buckets) {
		bar := strings.Repeat("#", int(b.Mean*20))
		fmt.Fprintf(s.out, "ids %7d..%-7d live %6d mean %.3f %s\n", b.FromID, b.ToID, b.Live, b.Mean, bar)
	}
	return nil
}

func (s *shell) containers(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: containers <table>")
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		return err
	}
	list := tbl.Shelf().List()
	if len(list) == 0 {
		fmt.Fprintln(s.out, "(no containers)")
		return nil
	}
	for _, c := range list {
		fmt.Fprintf(s.out, "%-20s count=%d bytes=%d freshness=%.3f\n",
			c.Name, c.Count, c.Bytes, float64(c.Freshness))
	}
	return nil
}

func (s *shell) ask(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: ask <table> <container> <question>")
	}
	tbl, err := s.db.Table(args[0])
	if err != nil {
		return err
	}
	q, err := container.ParseQuestion(tbl.Schema(), args[2])
	if err != nil {
		return err
	}
	ans, err := tbl.Shelf().Ask(args[1], q)
	if err != nil {
		return err
	}
	switch ans.Op {
	case container.OpTop:
		for _, e := range ans.Top {
			fmt.Fprintf(s.out, "%-24s ~%d\n", e.Item, e.Count)
		}
	case container.OpHas:
		fmt.Fprintln(s.out, ans.Has)
	default:
		fmt.Fprintln(s.out, strconv.FormatFloat(ans.Value, 'f', -1, 64))
	}
	return nil
}
