// FuzzDecodeFrames is the native fuzz target over the log-shipping
// decode path. Followers feed bytes received off the wire straight
// into DecodeFrames, so the decoder must be total: arbitrary input
// yields records or an error, never a panic, and FrameScan's notion of
// "valid prefix" must stay consistent with what DecodeFrames accepts
// and with where crash recovery's replay stops on the same bytes.
package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"fungusdb/internal/tuple"
)

// fuzzFrame wraps payload in a length+crc32c header, the exact shape
// appendFramed writes.
func fuzzFrame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(hdr[:], payload...)
}

func FuzzDecodeFrames(f *testing.F) {
	insert := append([]byte{byte(RecInsert)}, tuple.AppendEncode(nil,
		tuple.Tuple{ID: 7, T: 3, F: 1, Attrs: []tuple.Value{tuple.String_("sensor-1"), tuple.Int(42)}})...)
	evict := binary.LittleEndian.AppendUint64([]byte{byte(RecEvict)}, 7)
	tick := binary.LittleEndian.AppendUint64([]byte{byte(RecTick)}, 99)

	f.Add([]byte{})
	f.Add(fuzzFrame(insert))
	f.Add(append(fuzzFrame(evict), fuzzFrame(tick)...))
	f.Add(fuzzFrame(insert)[:5]) // torn header
	f.Add(fuzzFrame([]byte{0xFF, 1, 2, 3}))
	badLen := fuzzFrame(tick)
	binary.LittleEndian.PutUint32(badLen[0:4], 1<<30) // length past the buffer
	f.Add(badLen)
	badCRC := fuzzFrame(evict)
	badCRC[4] ^= 0xA5
	f.Add(badCRC)
	zero := fuzzFrame(nil) // zero-length frame is invalid by construction
	f.Add(zero)
	f.Add(append(fuzzFrame(insert), fuzzFrame(tick)[:11]...)) // torn payload after a whole frame

	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded int
		err := DecodeFrames(data, func(r Rec) error {
			switch r.Type {
			case RecInsert, RecEvict, RecTick:
			default:
				t.Fatalf("DecodeFrames produced unknown record type %d", r.Type)
			}
			decoded++
			return nil
		})
		if err == nil && len(data) > 0 && decoded == 0 {
			t.Fatalf("DecodeFrames(%d bytes) = nil with no records", len(data))
		}

		// FrameScan's valid prefix is exactly the frames DecodeFrames
		// can checksum: decoding the prefix visits at most recs records
		// and visits all of them whenever the payloads are well-formed.
		valid, recs := FrameScan(data)
		var prefixDecoded int
		perr := DecodeFrames(data[:valid], func(Rec) error { prefixDecoded++; return nil })
		if prefixDecoded > recs {
			t.Fatalf("prefix decoded %d records, FrameScan counted %d", prefixDecoded, recs)
		}
		if perr == nil && prefixDecoded != recs {
			t.Fatalf("prefix decoded %d records without error, FrameScan counted %d", prefixDecoded, recs)
		}

		// Crash recovery's replay loop — ReplayBounded over a log file's
		// bytes — stops where FrameScan does whenever every record
		// decodes. TestReplayBoundedMatchesFrameScan checks the same
		// through a file; writing one per input stalls the fuzzer.
		replayed := 0
		off, _, rerr := replayFrames(data, func(Rec) error { replayed++; return nil })
		if rerr == nil && (off != valid || replayed != recs) {
			t.Fatalf("replay stopped at (%d bytes, %d records), FrameScan at (%d, %d)", off, replayed, valid, recs)
		}
	})
}
