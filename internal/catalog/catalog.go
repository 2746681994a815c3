// Package catalog provides the declarative description of tables —
// schema, fungus, decay options — and its JSON persistence. A DB opened
// on a directory with a catalog recreates every table in it, fungi
// included, so a FungusDB instance survives restarts without the
// application re-supplying configuration.
//
// Fungi constructed programmatically (custom Fungus implementations,
// Targeted with a Go-level batch matcher) cannot round-trip through
// JSON; the spec language covers every built-in fungus, with Targeted
// scoped by a WHERE clause compiled to the query layer's batch program.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
)

// FungusSpec declaratively describes a fungus. Kind selects the
// constructor; the other fields parameterise it (unused fields are
// ignored). Decorators (refresh, seasonal, targeted) wrap Inner.
type FungusSpec struct {
	Kind string `json:"kind"` // none, ttl, linear, exponential, halflife, egi, quota, staggered, refresh, seasonal, targeted

	Rate     float64 `json:"rate,omitempty"`     // linear, staggered, egi decay
	Lifetime uint64  `json:"lifetime,omitempty"` // ttl
	Factor   float64 `json:"factor,omitempty"`   // exponential
	HalfLife float64 `json:"half_life,omitempty"`
	Seeds    int     `json:"seeds,omitempty"`    // egi
	AgeBias  float64 `json:"age_bias,omitempty"` // egi
	Max      int     `json:"max,omitempty"`      // quota
	Phases   uint64  `json:"phases,omitempty"`   // staggered
	Period   uint64  `json:"period,omitempty"`   // seasonal
	Active   uint64  `json:"active,omitempty"`   // seasonal
	Where    string  `json:"where,omitempty"`    // targeted

	Inner *FungusSpec `json:"inner,omitempty"` // refresh, seasonal, targeted
}

// Build constructs the fungus. The schema is needed for targeted specs,
// whose WHERE clause is compiled against it.
func (s *FungusSpec) Build(schema *tuple.Schema) (fungus.Fungus, error) {
	if s == nil {
		return fungus.Null{}, nil
	}
	inner := func() (fungus.Fungus, error) {
		if s.Inner == nil {
			return nil, fmt.Errorf("catalog: fungus %q needs an inner fungus", s.Kind)
		}
		return s.Inner.Build(schema)
	}
	switch s.Kind {
	case "", "none":
		return fungus.Null{}, nil
	case "ttl":
		if s.Lifetime == 0 {
			return nil, errors.New("catalog: ttl needs a positive lifetime")
		}
		return fungus.TTL{Lifetime: s.Lifetime}, nil
	case "linear":
		if s.Rate <= 0 {
			return nil, errors.New("catalog: linear needs a positive rate")
		}
		return fungus.Linear{Rate: s.Rate}, nil
	case "exponential":
		if s.Factor <= 0 || s.Factor >= 1 {
			return nil, errors.New("catalog: exponential needs factor in (0,1)")
		}
		return fungus.Exponential{Factor: s.Factor}, nil
	case "halflife":
		if s.HalfLife <= 0 {
			return nil, errors.New("catalog: halflife needs positive ticks")
		}
		return fungus.HalfLife(s.HalfLife), nil
	case "egi":
		cfg := fungus.EGIConfig{SeedsPerTick: s.Seeds, DecayRate: s.Rate, AgeBias: s.AgeBias}
		if cfg.SeedsPerTick < 0 || cfg.DecayRate < 0 {
			return nil, errors.New("catalog: egi rates must be non-negative")
		}
		return fungus.NewEGI(cfg), nil
	case "quota":
		if s.Max <= 0 {
			return nil, errors.New("catalog: quota needs a positive max")
		}
		return fungus.Quota{MaxTuples: s.Max}, nil
	case "staggered":
		if s.Rate <= 0 || s.Phases == 0 {
			return nil, errors.New("catalog: staggered needs positive rate and phases")
		}
		return fungus.Staggered{Rate: s.Rate, Phases: s.Phases}, nil
	case "refresh":
		in, err := inner()
		if err != nil {
			return nil, err
		}
		return fungus.AccessRefresh{Inner: in}, nil
	case "seasonal":
		in, err := inner()
		if err != nil {
			return nil, err
		}
		if s.Period == 0 || s.Active == 0 || s.Active > s.Period {
			return nil, errors.New("catalog: seasonal needs 0 < active <= period")
		}
		return fungus.Seasonal{Inner: in, Period: s.Period, Active: s.Active}, nil
	case "targeted":
		in, err := inner()
		if err != nil {
			return nil, err
		}
		pred, err := query.Compile(s.Where, schema)
		if err != nil {
			return nil, fmt.Errorf("catalog: targeted: %w", err)
		}
		return fungus.Targeted{Inner: in, Only: func() fungus.Matcher { return pred.NewBatchMatcher() }}, nil
	}
	return nil, fmt.Errorf("catalog: unknown fungus kind %q", s.Kind)
}

// TableSpec declaratively describes one table.
type TableSpec struct {
	Name   string      `json:"name"`
	Schema string      `json:"schema"` // tuple.ParseSchema format
	Fungus *FungusSpec `json:"fungus,omitempty"`
	// Shards splits the extent into this many independently locked,
	// independently decaying shards (0 and 1 both mean unsharded). The
	// shard count may change across restarts: recovery re-routes every
	// tuple to its owner by ID.
	Shards            int     `json:"shards,omitempty"`
	SegmentSize       int     `json:"segment_size,omitempty"`
	TickEvery         int     `json:"tick_every,omitempty"`
	TouchOnRead       bool    `json:"touch_on_read,omitempty"`
	DistillOnRot      bool    `json:"distill_on_rot,omitempty"`
	ContainerHalfLife float64 `json:"container_half_life,omitempty"`
	CheckpointEvery   int     `json:"checkpoint_every,omitempty"`
	// Durability is the WAL sync level for persistent tables: "none"
	// (buffered, fsync at checkpoint/close), "grouped" (batched
	// group-commit fsync with commit futures) or "strict" (fsync per
	// append). Empty inherits the DB-level default.
	Durability string `json:"durability,omitempty"`
}

// MaxShards bounds TableSpec.Shards: beyond the core count per-shard
// extents stop buying parallelism and only fragment the time axis.
const MaxShards = 1024

// Validate checks the spec without building anything.
func (s *TableSpec) Validate() error {
	if s.Name == "" {
		return errors.New("catalog: table spec needs a name")
	}
	if s.Shards < 0 || s.Shards > MaxShards {
		return fmt.Errorf("catalog: table %q: shards must be in [0, %d]", s.Name, MaxShards)
	}
	if _, err := wal.ParseDurability(s.Durability); err != nil {
		return fmt.Errorf("catalog: table %q: %w", s.Name, err)
	}
	schema, err := tuple.ParseSchema(s.Schema)
	if err != nil {
		return fmt.Errorf("catalog: table %q: %w", s.Name, err)
	}
	if _, err := s.Fungus.Build(schema); err != nil {
		return fmt.Errorf("catalog: table %q: %w", s.Name, err)
	}
	return nil
}

// File is the on-disk catalog: a sorted list of table specs.
const File = "catalog.json"

// Catalog is the set of declaratively created tables of one DB.
type Catalog struct {
	Tables []TableSpec `json:"tables"`
}

// Load reads the catalog from dir. A missing file is an empty catalog.
func Load(dir string) (*Catalog, error) {
	data, err := os.ReadFile(filepath.Join(dir, File))
	if errors.Is(err, os.ErrNotExist) {
		return &Catalog{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: load: %w", err)
	}
	var c Catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("catalog: parse: %w", err)
	}
	for i := range c.Tables {
		if err := c.Tables[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &c, nil
}

// Save writes the catalog to dir atomically.
func (c *Catalog) Save(dir string) error {
	sort.Slice(c.Tables, func(i, j int) bool { return c.Tables[i].Name < c.Tables[j].Name })
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: marshal: %w", err)
	}
	tmp := filepath.Join(dir, File+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("catalog: save: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, File)); err != nil {
		return fmt.Errorf("catalog: save: %w", err)
	}
	return nil
}

// Put inserts or replaces the spec for its table name.
func (c *Catalog) Put(spec TableSpec) {
	for i := range c.Tables {
		if c.Tables[i].Name == spec.Name {
			c.Tables[i] = spec
			return
		}
	}
	c.Tables = append(c.Tables, spec)
}

// Remove deletes the named spec, reporting whether it existed.
func (c *Catalog) Remove(name string) bool {
	for i := range c.Tables {
		if c.Tables[i].Name == name {
			c.Tables = append(c.Tables[:i], c.Tables[i+1:]...)
			return true
		}
	}
	return false
}
