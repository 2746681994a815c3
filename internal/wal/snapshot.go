package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

var snapshotMagic = [8]byte{'F', 'D', 'B', 'S', 'N', 'A', 'P', '2'}

// WriteSnapshot serialises every live tuple of one shard store (with
// exact freshness and infection state) to path, atomically via a temp
// file + rename.
func WriteSnapshot(path string, store *storage.Store) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot create: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = encodeSnapshot(f, store); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return nil
}

// encodeSnapshot writes the snapshot of store to w. Layout: magic,
// uvarint nextID, uvarint tuple count, a length-prefixed zone-map blob,
// the tuples, then crc32c of everything after the magic. The zone blob
// sits before the tuples so recovery can stage the summaries ahead of
// the restore stream.
func encodeSnapshot(w io.Writer, store *storage.Store) error {
	if _, err := w.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("wal: snapshot magic: %w", err)
	}
	crc := crc32.New(crcTable)
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(store.NextID()))
	hdr = binary.AppendUvarint(hdr, uint64(store.Len()))
	zones := store.AppendZones(nil)
	hdr = binary.AppendUvarint(hdr, uint64(len(zones)))
	hdr = append(hdr, zones...)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("wal: snapshot header: %w", err)
	}
	// The tuples are encoded off the column slices a batch at a time:
	// no row is materialised, and no freshness is written back.
	var buf []byte
	var werr error
	store.EachBatch(func(b *tuple.Batch) bool {
		buf = buf[:0]
		tuple.EachSet(b.Live, func(j int) bool {
			buf = tuple.AppendEncodeRow(buf, b, j)
			return true
		})
		_, werr = bw.Write(buf)
		return werr == nil
	})
	if werr != nil {
		return fmt.Errorf("wal: snapshot body: %w", werr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("wal: snapshot flush: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("wal: snapshot crc: %w", err)
	}
	return nil
}

// loadSnapshot restores the snapshot at path into store (which must be
// empty) without touching allocation cursors, returning the header's
// next-ID high-water mark. A missing file is not an error and loads
// nothing. Recovery advances the cursor only after the shard's log has
// replayed, so logged post-checkpoint inserts never look stale.
func loadSnapshot(path string, store *storage.Store) (tuple.ID, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot read: %w", err)
	}
	return DecodeSnapshot(data, store)
}

// DecodeSnapshot restores a serialised snapshot from memory into store
// without touching allocation cursors, returning the header's next-ID
// high-water mark. A replication follower re-basing from a shipped
// snapshot uses it directly: the chunks arrive over the wire, never
// touching the follower's disk. The caller is responsible for
// FinishRestore and AdvanceNextID once every shard is loaded.
func DecodeSnapshot(data []byte, store *storage.Store) (tuple.ID, error) {
	if len(data) < len(snapshotMagic)+4 {
		return 0, fmt.Errorf("wal: snapshot truncated (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return 0, fmt.Errorf("wal: bad snapshot magic")
	}
	body := data[len(snapshotMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != wantCRC {
		return 0, fmt.Errorf("wal: snapshot crc mismatch")
	}

	pos := 0
	nextID, w := binary.Uvarint(body[pos:])
	if w <= 0 {
		return 0, fmt.Errorf("wal: snapshot bad nextID")
	}
	pos += w
	count, w := binary.Uvarint(body[pos:])
	if w <= 0 {
		return 0, fmt.Errorf("wal: snapshot bad count")
	}
	pos += w
	zlen, w := binary.Uvarint(body[pos:])
	if w <= 0 || zlen > uint64(len(body)-pos-w) {
		return 0, fmt.Errorf("wal: snapshot bad zone blob")
	}
	pos += w
	if zlen > 0 {
		store.InstallZones(body[pos : pos+int(zlen)])
	}
	pos += int(zlen)
	for i := uint64(0); i < count; i++ {
		tp, n, err := tuple.Decode(body[pos:], store.Schema())
		if err != nil {
			return 0, fmt.Errorf("wal: snapshot tuple %d: %w", i, err)
		}
		pos += n
		if uint64(tp.ID) >= nextID {
			return 0, fmt.Errorf("wal: snapshot tuple %d: id %d at or past the next-ID mark %d", i, tp.ID, nextID)
		}
		if err := store.Restore(tp); err != nil {
			return 0, fmt.Errorf("wal: snapshot tuple %d: %w", i, err)
		}
	}
	return tuple.ID(nextID), nil
}
