package storage

// shardDict is one STRING column's shard-wide dictionary. Every string
// a segment's dictionary holds also has a shard code, the same in every
// segment of the store, and each segment's colVec records its local
// codes' shard codes (colVec.shard, handed to readers as
// tuple.ColView.Shard). A reader that folds a whole shard — the GROUP BY
// index — can then key on one code space for the shard instead of one
// per segment, and hashes each distinct string once per shard.
//
// Codes are counted by the segment dictionaries that name them. A
// segment that is dropped or compacted releases the codes it no longer
// names, and a code no segment names is forgotten and reused by a later
// intern, so the dictionary holds only strings a live segment holds:
// rot frees it as it frees the segments. A shard code is therefore
// stable only while the shard's lock is held. Interning happens on the
// append path, under the shard's write lock.
type shardDict struct {
	index   map[string]uint32 // string -> shard code
	entries []dictEntry       // by shard code
	free    []uint32          // released codes, reused first
}

// dictEntry is one shard code. tag and local name the segment that
// interned the code last and the code's local code there: appends move
// forward through a store's segments and never return, so a code whose
// tag is the appending segment's tag is already in its dictionary.
type dictEntry struct {
	s     string // "" once released
	refs  int32  // segment dictionaries naming the code
	local uint32
	tag   uint64
}

func newShardDict() *shardDict { return &shardDict{index: make(map[string]uint32)} }

// intern returns the local code of s in c, the STRING column of the
// segment tagged tag, adding s to c's dictionary (and to the shard's,
// when new) on the first sight of it in that segment.
func (d *shardDict) intern(c *colVec, tag uint64, s string) uint32 {
	sc, ok := d.index[s]
	if ok {
		if e := &d.entries[sc]; e.tag == tag {
			return e.local
		}
	} else {
		sc = d.add(s)
	}
	e := &d.entries[sc]
	l := uint32(len(c.dict))
	c.dict = append(c.dict, e.s)
	c.shard = append(c.shard, sc)
	e.refs++
	e.tag, e.local = tag, l
	return l
}

// add gives s a shard code, reusing a released one when there is one.
func (d *shardDict) add(s string) uint32 {
	var sc uint32
	if n := len(d.free); n > 0 {
		sc, d.free = d.free[n-1], d.free[:n-1]
		d.entries[sc] = dictEntry{s: s}
	} else {
		sc = uint32(len(d.entries))
		d.entries = append(d.entries, dictEntry{s: s})
	}
	d.index[s] = sc
	return sc
}

// release drops one segment dictionary's claim on code sc, forgetting
// the string when it was the last.
func (d *shardDict) release(sc uint32) {
	e := &d.entries[sc]
	if e.refs--; e.refs > 0 {
		return
	}
	delete(d.index, e.s)
	*e = dictEntry{}
	d.free = append(d.free, sc)
}
