package core

import (
	"math/rand"
	"sync"
)

// lockedSource serialises a rand.Source64 so one *rand.Rand can be
// shared by shard 0's fungus and the table's knowledge shelf without
// racing. Single-threaded draw sequences are identical to the unlocked
// source, which is what keeps seeded experiment output byte-identical
// to the pre-sharding engine at shards=1.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func newLockedSource(seed int64) *lockedSource {
	return &lockedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	v := s.src.Int63()
	s.mu.Unlock()
	return v
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	v := s.src.Uint64()
	s.mu.Unlock()
	return v
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	s.src.Seed(seed)
	s.mu.Unlock()
}
