package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"trustvo/internal/faultinject"
)

// Snapshot file format (base + ".snap"):
//
//	magic    [4]byte  "TVS1"
//	coverSeq uint64   first segment sequence NOT covered by this snapshot
//	count    uint64   number of record frames that follow
//	crc      uint32   CRC-32 (IEEE) over the 20 header bytes above
//	frames   count standard WAL put-frames (see wal.go), one per record
//
// A snapshot is written to base+".snap.tmp", fsynced, renamed into place
// and the directory fsynced — so on disk it is either absent, the
// complete previous snapshot, or the complete new one. Unlike a log
// segment, a snapshot has no torn-tail tolerance: recovery demands
// exactly count valid frames, because the segments it summarizes are
// deleted after it lands and a partial snapshot would silently drop
// records. A snapshot that fails validation is a hard open error.

var snapMagic = [4]byte{'T', 'V', 'S', '1'}

const snapHeaderLen = 4 + 8 + 8 + 4

// writeSnapshot writes entries as the snapshot covering segments below
// coverSeq, atomically replacing any previous snapshot.
func writeSnapshot(fs faultinject.FS, base string, coverSeq uint64, entries []Entry) error {
	tmpPath := snapshotTmpPath(base)
	f, err := fs.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: create snapshot tmp: %w", err)
	}
	cleanup := func(err error) error {
		f.Close()
		fs.Remove(tmpPath)
		return err
	}
	hdr := make([]byte, snapHeaderLen)
	copy(hdr[:4], snapMagic[:])
	binary.BigEndian.PutUint64(hdr[4:12], coverSeq)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(len(entries)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(hdr[:20]))
	buf := hdr
	for _, e := range entries {
		if buf, err = appendFrame(buf, e); err != nil {
			return cleanup(err)
		}
		// Flush in chunks so a huge store does not hold its whole image
		// in one contiguous buffer.
		if len(buf) >= 1<<20 {
			if _, err := f.Write(buf); err != nil {
				return cleanup(fmt.Errorf("store: write snapshot: %w", err))
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			return cleanup(fmt.Errorf("store: write snapshot: %w", err))
		}
	}
	// Durability order (do not reorder): contents fsynced before the
	// rename publishes them, directory fsynced after so the new name
	// survives a crash. Only then may the caller delete the segments this
	// snapshot covers.
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("store: sync snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmpPath)
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := fs.Rename(tmpPath, snapshotPath(base)); err != nil {
		fs.Remove(tmpPath)
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := fs.SyncDir(snapshotPath(base)); err != nil {
		return fmt.Errorf("store: sync dir after snapshot: %w", err)
	}
	return nil
}

// loadSnapshot reads the snapshot for base. Returns (nil, 0, nil) when no
// snapshot exists.
func loadSnapshot(base string) ([]Entry, uint64, error) {
	f, err := os.Open(snapshotPath(base))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdr := make([]byte, snapHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, fmt.Errorf("store: snapshot header: %w", err)
	}
	if !bytes.Equal(hdr[:4], snapMagic[:]) {
		return nil, 0, fmt.Errorf("store: snapshot has bad magic")
	}
	if crc32.ChecksumIEEE(hdr[:20]) != binary.BigEndian.Uint32(hdr[20:24]) {
		return nil, 0, fmt.Errorf("store: snapshot header CRC mismatch")
	}
	coverSeq := binary.BigEndian.Uint64(hdr[4:12])
	count := binary.BigEndian.Uint64(hdr[12:20])
	entries, _ := DecodeFrames(br)
	if uint64(len(entries)) != count {
		return nil, 0, fmt.Errorf("store: snapshot truncated or corrupt: %d of %d records valid", len(entries), count)
	}
	return entries, coverSeq, nil
}
