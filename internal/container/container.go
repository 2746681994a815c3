package container

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

// Container is a named knowledge container: a digest plus its own
// freshness lifecycle. Containers decay exponentially with the
// configured half-life (in ticks) and are discarded by their Shelf when
// rotten — knowledge rots too, just on a different clock than data.
// A half-life of zero means the container never decays.
type Container struct {
	Name     string
	Digest   *Digest
	Created  clock.Tick
	HalfLife float64

	freshness tuple.Freshness
}

// NewContainer wraps a fresh digest. halfLife <= 0 disables decay.
func NewContainer(name string, d *Digest, created clock.Tick, halfLife float64) *Container {
	return &Container{
		Name:      name,
		Digest:    d,
		Created:   created,
		HalfLife:  halfLife,
		freshness: tuple.Full,
	}
}

// Freshness returns the container's current freshness.
func (c *Container) Freshness() tuple.Freshness { return c.freshness }

// Tick advances the container's decay by one clock cycle.
func (c *Container) Tick() {
	if c.HalfLife <= 0 {
		return
	}
	c.freshness = tuple.Freshness(float64(c.freshness) * math.Pow(2, -1/c.HalfLife))
	if float64(c.freshness) < 1e-3 {
		c.freshness = 0
	}
}

// Rotten reports whether the container should be discarded.
func (c *Container) Rotten() bool { return c.freshness.Rotten() }

// Touch restores the container to full freshness; consulting knowledge
// keeps it alive, mirroring AccessRefresh on raw data.
func (c *Container) Touch() { c.freshness = tuple.Full }

// Shelf is a thread-safe registry of containers belonging to one table.
type Shelf struct {
	mu         sync.Mutex
	schema     *tuple.Schema
	cfg        DigestConfig
	rng        *rand.Rand
	containers map[string]*Container
	discarded  uint64
}

// NewShelf builds an empty shelf. The rng seeds each digest's reservoir
// and must be non-nil.
func NewShelf(schema *tuple.Schema, cfg DigestConfig, rng *rand.Rand) *Shelf {
	return &Shelf{
		schema:     schema,
		cfg:        cfg,
		rng:        rng,
		containers: make(map[string]*Container),
	}
}

// Get returns the named container, or nil. The container's digest is
// read and written under the shelf's lock: a caller that reads it
// while the table may tick or distill asks through Ask or List instead.
func (s *Shelf) Get(name string) *Container {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.containers[name]
}

// getOrCreateLocked returns the named container, creating it (with the
// given half-life) on first use. The caller holds s.mu.
func (s *Shelf) getOrCreateLocked(name string, now clock.Tick, halfLife float64) (*Container, error) {
	if c, ok := s.containers[name]; ok {
		return c, nil
	}
	d, err := NewDigest(s.schema, s.cfg, s.rng)
	if err != nil {
		return nil, err
	}
	c := NewContainer(name, d, now, halfLife)
	s.containers[name] = c
	return c, nil
}

// Absorb distills tuples into the named container, creating it if
// needed.
func (s *Shelf) Absorb(name string, now clock.Tick, halfLife float64, tuples []tuple.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.getOrCreateLocked(name, now, halfLife)
	if err != nil {
		return err
	}
	for i := range tuples {
		if err := c.Digest.Absorb(&tuples[i]); err != nil {
			return fmt.Errorf("container %q: %w", name, err)
		}
	}
	return nil
}

// Ask answers a question (see ParseQuestion) from the named container's
// digest and touches the container: consulted knowledge stays alive. A
// missing container is ErrNoContainer.
func (s *Shelf) Ask(name string, q Question) (Answer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[name]
	if !ok {
		return Answer{}, fmt.Errorf("%w: %q", ErrNoContainer, name)
	}
	c.Touch()
	return c.Digest.answer(q)
}

// Tick decays every container one cycle and discards the rotten ones,
// returning the names discarded (sorted).
func (s *Shelf) Tick() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var gone []string
	for name, c := range s.containers {
		c.Tick()
		if c.Rotten() {
			delete(s.containers, name)
			gone = append(gone, name)
			s.discarded++
		}
	}
	sort.Strings(gone)
	return gone
}

// Info summarises one live container.
type Info struct {
	Name      string
	Count     uint64
	Bytes     int
	Freshness tuple.Freshness
}

// List summarises the live containers, sorted by name.
func (s *Shelf) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.containers))
	for name, c := range s.containers {
		out = append(out, Info{Name: name, Count: c.Digest.Count(), Bytes: c.Digest.Bytes(), Freshness: c.freshness})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of live containers.
func (s *Shelf) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.containers)
}

// Discarded returns how many containers have rotted away.
func (s *Shelf) Discarded() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discarded
}

// Consolidate merges the named source containers into dst (created with
// the given half-life if absent) and removes the sources — the
// knowledge-lifecycle move of rolling hourly containers into a daily
// one. Missing sources are ignored; on a merge error the shelf is left
// partially consolidated (merged sources removed, the failing one kept).
func (s *Shelf) Consolidate(dst string, now clock.Tick, halfLife float64, srcs ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.getOrCreateLocked(dst, now, halfLife)
	if err != nil {
		return err
	}
	for _, name := range srcs {
		if name == dst {
			continue
		}
		src, ok := s.containers[name]
		if !ok {
			continue
		}
		if err := c.Digest.Merge(src.Digest); err != nil {
			return fmt.Errorf("container: consolidate %q: %w", name, err)
		}
		delete(s.containers, name)
	}
	return nil
}

// Bytes returns the total footprint of all live containers.
func (s *Shelf) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.containers {
		n += c.Digest.Bytes()
	}
	return n
}
