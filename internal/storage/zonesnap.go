package storage

import (
	"encoding/binary"
	"math"

	"fungusdb/internal/sketch"
	"fungusdb/internal/tuple"
)

// zoneBlobVersion versions the serialised zone record layout, including
// the bloom filter bit layout it embeds (see sketch.hashes). A reader
// that sees a different version discards the blob and rebuilds the
// summaries from the restored tuples — persistence here is an
// optimisation, never a correctness dependency.
const zoneBlobVersion = 1

// pendingZone is a snapshot zone summary staged for install: when a
// restore creates the segment at its base, the summary is adopted and
// per-row folds are skipped for every row with ID <= coverMax (the
// summary's ID high-water mark — IDs are globally monotonic, so rows
// the summary has not seen always sort above it and fold normally).
type pendingZone struct {
	zone     *ZoneMap
	coverMax tuple.ID
}

// AppendZones serialises every usable segment zone map of the store to
// dst. Empty summaries are skipped: recovery rebuilds those the
// ordinary way. The blob is self-describing and safe to hand to a
// store with a different shard count or segment size — records that do
// not line up with the reader's layout are simply dropped.
func (s *Store) AppendZones(dst []byte) []byte {
	var recs [][]byte
	for i := s.first; i < len(s.segs); i++ {
		sg := s.segs[i]
		if sg == nil || !sg.zone.usable() {
			continue
		}
		recs = append(recs, appendZoneRecord(nil, sg))
	}
	return appendZoneBlob(dst, recs)
}

// InstallZones parses a blob written by AppendZones and stages every
// record that matches this store's layout (stride and residue class)
// for install during the upcoming Restore stream. Unparseable or
// mismatched blobs are ignored without error.
func (s *Store) InstallZones(blob []byte) {
	pos := 0
	ver, n := binary.Uvarint(blob[pos:])
	if n <= 0 || ver != zoneBlobVersion {
		return
	}
	pos += n
	count, n := binary.Uvarint(blob[pos:])
	if n <= 0 {
		return
	}
	pos += n
	for i := uint64(0); i < count; i++ {
		rlen, n := binary.Uvarint(blob[pos:])
		if n <= 0 || pos+n+int(rlen) > len(blob) {
			return
		}
		pos += n
		rec := blob[pos : pos+int(rlen)]
		pos += int(rlen)
		base, coverMax, zone, ok := decodeZoneRecord(rec, s.schema)
		if !ok {
			continue
		}
		if tuple.ID(zoneStride(rec)) != s.stride || base%s.stride != s.offset%s.stride {
			continue
		}
		if s.pendingZones == nil {
			s.pendingZones = make(map[tuple.ID]pendingZone)
		}
		s.pendingZones[base] = pendingZone{zone: zone, coverMax: coverMax}
	}
}

// appendZoneBlob frames the records: version, count, then each record
// length-prefixed.
func appendZoneBlob(dst []byte, recs [][]byte) []byte {
	dst = binary.AppendUvarint(dst, zoneBlobVersion)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(r)))
		dst = append(dst, r...)
	}
	return dst
}

// appendZoneRecord serialises one segment's summary: base, stride, then
// the tick/ID bounds and per-column kind-tagged bounds (with the bloom
// for STRING columns).
func appendZoneRecord(dst []byte, sg *segment) []byte {
	z := sg.zone
	dst = binary.AppendUvarint(dst, uint64(sg.base))
	dst = binary.AppendUvarint(dst, uint64(sg.stride))
	dst = binary.AppendVarint(dst, z.tMin)
	dst = binary.AppendVarint(dst, z.tMax)
	dst = binary.AppendUvarint(dst, uint64(z.idMin))
	dst = binary.AppendUvarint(dst, uint64(z.idMax))
	dst = binary.AppendUvarint(dst, uint64(len(z.cols)))
	for i := range z.cols {
		c := &z.cols[i]
		dst = append(dst, byte(c.kind))
		if !c.ok {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			switch c.kind {
			case tuple.KindInt, tuple.KindBool:
				dst = binary.AppendVarint(dst, c.iLo)
				dst = binary.AppendVarint(dst, c.iHi)
			case tuple.KindFloat:
				dst = binary.AppendUvarint(dst, math.Float64bits(c.fLo))
				dst = binary.AppendUvarint(dst, math.Float64bits(c.fHi))
			case tuple.KindString:
				dst = binary.AppendUvarint(dst, uint64(len(c.sLo)))
				dst = append(dst, c.sLo...)
				dst = binary.AppendUvarint(dst, uint64(len(c.sHi)))
				dst = append(dst, c.sHi...)
			}
		}
		if c.kind == tuple.KindString {
			if c.bloom == nil {
				dst = append(dst, 0)
			} else {
				dst = append(dst, 1)
				dst = c.bloom.AppendTo(dst)
			}
		}
	}
	return dst
}

// zoneStride peeks the stride field of a record (second uvarint).
func zoneStride(rec []byte) uint64 {
	_, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0
	}
	stride, m := binary.Uvarint(rec[n:])
	if m <= 0 {
		return 0
	}
	return stride
}

// decodeZoneRecord rebuilds one summary. ok is false when the record is
// malformed or its column kinds do not match schema.
func decodeZoneRecord(rec []byte, schema *tuple.Schema) (base, coverMax tuple.ID, z *ZoneMap, ok bool) {
	pos := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(rec[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	sv := func() (int64, bool) {
		v, n := binary.Varint(rec[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	b, ok1 := uv()
	_, ok2 := uv() // stride, already matched by the caller
	tMin, ok3 := sv()
	tMax, ok4 := sv()
	idMin, ok5 := uv()
	idMax, ok6 := uv()
	ncols, ok7 := uv()
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 || !ok7 || int(ncols) != schema.Len() {
		return 0, 0, nil, false
	}
	z = &ZoneMap{
		schema: schema,
		cols:   make([]colZone, ncols),
		tMin:   tMin,
		tMax:   tMax,
		idMin:  tuple.ID(idMin),
		idMax:  tuple.ID(idMax),
		seen:   true,
	}
	for i := range z.cols {
		if pos+2 > len(rec) {
			return 0, 0, nil, false
		}
		kind := tuple.Kind(rec[pos])
		pos++
		if kind != schema.Column(i).Kind {
			return 0, 0, nil, false
		}
		c := &z.cols[i]
		c.kind = kind
		hasBounds := rec[pos] == 1
		pos++
		if hasBounds {
			c.ok = true
			switch kind {
			case tuple.KindInt, tuple.KindBool:
				lo, okLo := sv()
				hi, okHi := sv()
				if !okLo || !okHi {
					return 0, 0, nil, false
				}
				c.iLo, c.iHi = lo, hi
			case tuple.KindFloat:
				lo, okLo := uv()
				hi, okHi := uv()
				if !okLo || !okHi {
					return 0, 0, nil, false
				}
				c.fLo, c.fHi = math.Float64frombits(lo), math.Float64frombits(hi)
			case tuple.KindString:
				nLo, okLo := uv()
				if !okLo || pos+int(nLo) > len(rec) {
					return 0, 0, nil, false
				}
				c.sLo = string(rec[pos : pos+int(nLo)])
				pos += int(nLo)
				nHi, okHi := uv()
				if !okHi || pos+int(nHi) > len(rec) {
					return 0, 0, nil, false
				}
				c.sHi = string(rec[pos : pos+int(nHi)])
				pos += int(nHi)
			}
		}
		if kind == tuple.KindString {
			if pos >= len(rec) {
				return 0, 0, nil, false
			}
			hasBloom := rec[pos] == 1
			pos++
			if hasBloom {
				bl, n, err := sketch.BloomFrom(rec[pos:])
				if err != nil {
					return 0, 0, nil, false
				}
				c.bloom = bl
				pos += n
			}
		}
	}
	return tuple.ID(b), z.idMax, z, true
}
