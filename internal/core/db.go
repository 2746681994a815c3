// Package core assembles the paper's system: FungusDB, an embedded
// relational engine whose tables obey the two natural laws of Big Data.
//
// Law 1 (rotting): every table decays under a pluggable data fungus,
// applied by a periodic clock tick. Tuples whose freshness reaches zero
// are distilled into knowledge containers (if configured) and evicted;
// eventually an untended extent disappears completely.
//
// Law 2 (consume-on-query): tables can execute queries in Consume mode,
// where the extent is replaced by the union of the answer set and the
// reduced extent — matching tuples leave the table the moment they are
// answered, optionally distilled into a container on the way out.
//
// A DB owns a logical clock, a deterministic RNG and a set of tables;
// Tick advances decay across all of them. Tables are individually
// synchronised, so concurrent use from multiple goroutines is safe.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fungusdb/internal/catalog"
	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
)

// DBConfig configures Open.
type DBConfig struct {
	// Clock drives decay. Nil defaults to a Virtual clock at tick 0,
	// advanced by DB.Tick.
	Clock clock.Clock
	// Seed makes every random choice in the engine (fungus seeding,
	// reservoir sampling) reproducible. The zero seed is a valid seed.
	Seed int64
	// Dir, when non-empty, is the root directory for persistent tables
	// (each table gets a subdirectory). Empty keeps everything in
	// memory.
	Dir string
	// Workers bounds EACH fan-out level: DB.Tick runs at most Workers
	// tables at once, and every table fans its shards out over at most
	// Workers goroutines of its own — nested ticks can therefore run up
	// to Workers^2 goroutines briefly. 0 means GOMAXPROCS; 1 forces the
	// fully serial engine.
	Workers int
	// Durability is the WAL sync level applied to persistent tables
	// whose TableConfig.Durability is left at wal.DurabilityDefault:
	// none (buffered, fsync only at checkpoint/close), grouped (batched
	// fsync per commit window, appends get a commit future), or strict
	// (fsync per append). DurabilityDefault here means DurabilityNone.
	Durability wal.DurabilityLevel
	// GroupCommitInterval is the grouped-mode flush tick (0 = the
	// wal.DefaultGroupInterval of 2ms).
	GroupCommitInterval time.Duration
	// GroupCommitSize flushes a grouped commit window early once this
	// many records are pending (0 = wal.DefaultGroupSize).
	GroupCommitSize int
}

// DB is a FungusDB instance.
type DB struct {
	mu     sync.Mutex
	cfg    DBConfig
	clk    clock.Clock
	tables map[string]*Table
	cat    *catalog.Catalog
	closed bool
}

// Open creates a DB. With cfg.Dir set, the directory is created if
// missing, the catalog is loaded, and every declaratively created table
// (see CreateTableFromSpec) is recreated with its data recovered.
// Tables created with plain CreateTable and Persist recover their data
// too, but their configuration must be re-supplied by the caller.
func Open(cfg DBConfig) (*DB, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewVirtual(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	db := &DB{
		cfg:    cfg,
		clk:    cfg.Clock,
		tables: make(map[string]*Table),
		cat:    &catalog.Catalog{},
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: open dir: %w", err)
		}
		cat, err := catalog.Load(cfg.Dir)
		if err != nil {
			return nil, err
		}
		db.cat = cat
		for _, spec := range cat.Tables {
			if _, err := db.createFromSpec(spec); err != nil {
				return nil, fmt.Errorf("core: recreate table %q: %w", spec.Name, err)
			}
		}
	}
	return db, nil
}

// CreateTableFromSpec creates a persistent table from a declarative
// spec and records it in the DB catalog, so a future Open of the same
// directory recreates it automatically. The DB must have a Dir.
func (db *DB) CreateTableFromSpec(spec catalog.TableSpec) (*Table, error) {
	if db.cfg.Dir == "" {
		return nil, fmt.Errorf("core: spec tables need a DB Dir")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t, err := db.createFromSpec(spec)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.cat.Put(spec)
	err = db.cat.Save(db.cfg.Dir)
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (db *DB) createFromSpec(spec catalog.TableSpec) (*Table, error) {
	schema, err := tuple.ParseSchema(spec.Schema)
	if err != nil {
		return nil, err
	}
	f, err := spec.Fungus.Build(schema)
	if err != nil {
		return nil, err
	}
	durability, err := wal.ParseDurability(spec.Durability)
	if err != nil {
		return nil, err
	}
	return db.CreateTable(spec.Name, TableConfig{
		Schema:            schema,
		Fungus:            f,
		Shards:            spec.Shards,
		SegmentSize:       spec.SegmentSize,
		TickEvery:         spec.TickEvery,
		TouchOnRead:       spec.TouchOnRead,
		DistillOnRot:      spec.DistillOnRot,
		ContainerHalfLife: spec.ContainerHalfLife,
		CheckpointEvery:   spec.CheckpointEvery,
		Durability:        durability,
		Persist:           true,
	})
}

// TableSpecs returns a copy of the catalog's declarative table specs,
// sorted by name. These are the tables a replication follower can
// mirror: spec-created tables are persistent (they have a WAL to ship)
// and self-describing (the follower rebuilds schema, fungus and shard
// count from the spec alone).
func (db *DB) TableSpecs() []catalog.TableSpec {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := append([]catalog.TableSpec(nil), db.cat.Tables...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateReplicaFromSpec creates an in-memory, read-only replica table
// from a leader's declarative spec. Persistence and checkpointing stay
// off (the leader owns durability); everything else — schema, fungus,
// shard count, segment size — matches the leader so replayed decay and
// restored tuples land identically.
func (db *DB) CreateReplicaFromSpec(spec catalog.TableSpec) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	schema, err := tuple.ParseSchema(spec.Schema)
	if err != nil {
		return nil, err
	}
	f, err := spec.Fungus.Build(schema)
	if err != nil {
		return nil, err
	}
	return db.CreateTable(spec.Name, TableConfig{
		Schema:            schema,
		Fungus:            f,
		Shards:            spec.Shards,
		SegmentSize:       spec.SegmentSize,
		TickEvery:         spec.TickEvery,
		ContainerHalfLife: spec.ContainerHalfLife,
		ReadOnly:          true,
	})
}

// Now returns the current logical tick.
func (db *DB) Now() clock.Tick { return db.clk.Now() }

// CreateTable registers a new table. Table names must be unique and
// non-empty. When cfg.Persist is true the DB must have been opened with
// a Dir; existing snapshot/WAL state for the table is recovered.
func (db *DB) CreateTable(name string, cfg TableConfig) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty table name")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("core: table %q needs a schema", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("core: db is closed")
	}
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	dir := ""
	if cfg.Persist {
		if db.cfg.Dir == "" {
			return nil, fmt.Errorf("core: table %q wants persistence but the DB has no Dir", name)
		}
		dir = filepath.Join(db.cfg.Dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: table dir: %w", err)
		}
	}
	// Per-table seed derived from the DB seed and the table name, so
	// adding a table never perturbs another table's randomness; the
	// table derives one RNG stream per shard from it.
	seed := db.cfg.Seed
	for _, r := range name {
		seed = seed*1099511628211 + int64(r)
	}
	t, err := newTable(name, cfg, db.clk, seed, dir, db.cfg)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("core: no table %q", name)
	}
	return t, nil
}

// Tables returns the table names, sorted.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	//fungusvet:allow determinism -- keys are sorted before they escape
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropTable closes and removes a table, including its catalog entry.
// Persistent data on disk is left behind (drop is a catalog operation,
// not a purge).
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	t, ok := db.tables[name]
	if ok {
		delete(db.tables, name)
	}
	var catErr error
	if ok && db.cat.Remove(name) && db.cfg.Dir != "" {
		catErr = db.cat.Save(db.cfg.Dir)
	}
	db.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no table %q", name)
	}
	if err := t.Close(); err != nil {
		return err
	}
	return catErr
}

// TickReport summarises one decay cycle across the DB.
type TickReport struct {
	Now       clock.Tick
	PerTable  map[string]TableTickReport
	TotalRot  int
	TotalLive int
}

// Tick advances the clock one cycle (when it is an Advancer) and applies
// every table's fungus, distillation and container decay. Tables decay
// concurrently over the worker pool (each table further fans out over
// its shards); the report is assembled in sorted table order, so the
// output is deterministic regardless of scheduling.
func (db *DB) Tick() (TickReport, error) {
	db.mu.Lock()
	if adv, ok := db.clk.(clock.Advancer); ok {
		adv.Advance(1)
	}
	tables := make([]*Table, 0, len(db.tables))
	//fungusvet:allow determinism -- tables are sorted by name below, before any tick runs
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	workers := db.cfg.Workers
	db.mu.Unlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].name < tables[j].name })

	rep := TickReport{Now: db.clk.Now(), PerTable: make(map[string]TableTickReport, len(tables))}
	reps := make([]TableTickReport, len(tables))
	err := fanOut(len(tables), workers, func(i int) error {
		tr, err := tables[i].Tick()
		if err != nil {
			return fmt.Errorf("core: tick table %q: %w", tables[i].name, err)
		}
		reps[i] = tr
		return nil
	})
	for i, t := range tables {
		rep.PerTable[t.name] = reps[i]
		rep.TotalRot += reps[i].Rotted
		rep.TotalLive += reps[i].Live
	}
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// Close flushes and closes every table. The DB cannot be used after.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	// Close in sorted name order: map order would make BOTH the close
	// sequence and which error wins (firstErr) vary run to run.
	names := make([]string, 0, len(db.tables))
	//fungusvet:allow determinism -- keys are sorted before any table is closed
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var firstErr error
	for _, n := range names {
		if err := db.tables[n].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.tables = nil
	return firstErr
}

// Row is a convenience constructor turning native Go values into typed
// attribute values: int/int64 -> INT, float64 -> FLOAT, string ->
// STRING, bool -> BOOL. It panics on other types; it exists for
// examples and tests where the schema is statically known.
func Row(vals ...any) []tuple.Value {
	out := make([]tuple.Value, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = tuple.Int(int64(x))
		case int64:
			out[i] = tuple.Int(x)
		case float64:
			out[i] = tuple.Float(x)
		case string:
			out[i] = tuple.String_(x)
		case bool:
			out[i] = tuple.Bool(x)
		case tuple.Value:
			out[i] = x
		default:
			panic(fmt.Sprintf("core: Row cannot convert %T", v))
		}
	}
	return out
}

// SelectTuples is the statement that reads whole tuples of table:
// SELECT [CONSUME] _id, _t, _f, * FROM table [WHERE where] — the system
// columns, then the attributes in schema order. RowTuple turns each of
// its rows back into a tuple.
func SelectTuples(table string, consume bool, where string) string {
	src := "SELECT "
	if consume {
		src += "CONSUME "
	}
	src += tuple.SysID + ", " + tuple.SysTick + ", " + tuple.SysFresh + ", * FROM " + table
	if where != "" {
		src += " WHERE " + where
	}
	return src
}

// RowTuple rebuilds the tuple behind a row of SelectTuples; its Attrs
// alias the row. Infected is fungus state, not a column, so it is always
// false.
func RowTuple(row []tuple.Value) tuple.Tuple {
	return tuple.Tuple{
		ID:    tuple.ID(row[0].AsInt()),
		T:     clock.Tick(row[1].AsInt()),
		F:     tuple.Freshness(row[2].AsFloat()),
		Attrs: row[3:],
	}
}
