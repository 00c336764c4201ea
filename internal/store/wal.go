package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Write-ahead log framing, shared by log segments, snapshot bodies and
// the replication stream.
//
// Each frame:
//
//	magic   [2]byte  "TV"
//	op      byte     'P' (put) | 'D' (delete)
//	kindLen uint16
//	keyLen  uint16
//	docLen  uint32
//	kind, key, doc bytes
//	crc     uint32   CRC-32 (IEEE) over everything above
//
// A frame whose bytes run past EOF or whose CRC fails marks the torn
// tail of the log: replay stops there, which is the standard
// crash-recovery contract of a WAL (committed writes survive, the torn
// write disappears). Segments are append-only and sealed by rotation, so
// a tear can only ever sit at the tail of the newest segment that was
// active when the process died.

// OpPut and OpDelete are the Entry operation codes, written as the
// frame's op byte.
const (
	OpPut    byte = 'P'
	OpDelete byte = 'D'
)

// Entry is one logged mutation: a WAL frame decoded. The committer,
// the segments, snapshots, OnCommit and replication all carry it.
type Entry struct {
	// Op is OpPut or OpDelete.
	Op byte
	// Kind and Key address the record.
	Kind string
	Key  string
	// Doc is the record XML for puts ("" for deletes).
	Doc string
}

var walMagic = [2]byte{'T', 'V'}

const walHeaderLen = 2 + 1 + 2 + 2 + 4

// ErrWALClosed is returned for writes after Close.
var ErrWALClosed = errors.New("store: WAL closed")

// validateEntry rejects mutations a frame cannot carry (the committer
// fails the one writer instead of poisoning the batch): kind and key must
// fit the uint16 length fields and the document must stay below the 1 GiB
// bound replay enforces.
func validateEntry(e Entry) error {
	if len(e.Kind) > 0xFFFF || len(e.Key) > 0xFFFF {
		return fmt.Errorf("store: kind or key too long for WAL frame")
	}
	if len(e.Doc) > 1<<30 {
		return fmt.Errorf("store: document too large for WAL frame")
	}
	return nil
}

// EncodeEntries renders entries as a run of CRC-framed WAL bytes.
func EncodeEntries(entries []Entry) ([]byte, error) {
	var buf []byte
	for _, e := range entries {
		var err error
		if buf, err = appendFrame(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeFrames decodes WAL frames from r until EOF or the first torn or
// corrupt frame, returning the decoded entries and how many bytes of
// good frames were consumed. A cut or damaged run is not an error — the
// caller sees the valid prefix, whether it reads a segment, a snapshot
// body or a replication transfer.
func DecodeFrames(r io.Reader) ([]Entry, int64) {
	br := bufio.NewReader(r)
	var entries []Entry
	var good int64
	hdr := make([]byte, walHeaderLen)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			// io.EOF: clean end. ErrUnexpectedEOF: torn header.
			return entries, good
		}
		if hdr[0] != walMagic[0] || hdr[1] != walMagic[1] {
			return entries, good // garbage: stop at last good frame
		}
		op := hdr[2]
		kindLen := binary.BigEndian.Uint16(hdr[3:5])
		keyLen := binary.BigEndian.Uint16(hdr[5:7])
		docLen := binary.BigEndian.Uint32(hdr[7:11])
		if docLen > 1<<30 {
			return entries, good
		}
		body := make([]byte, int(kindLen)+int(keyLen)+int(docLen)+4)
		if _, err := io.ReadFull(br, body); err != nil {
			return entries, good // torn body
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr)
		payload := body[:len(body)-4]
		crc.Write(payload)
		want := binary.BigEndian.Uint32(body[len(body)-4:])
		if crc.Sum32() != want {
			return entries, good // corrupted frame
		}
		if op != OpPut && op != OpDelete {
			return entries, good
		}
		e := Entry{
			Op:   op,
			Kind: string(payload[:kindLen]),
			Key:  string(payload[kindLen : int(kindLen)+int(keyLen)]),
			Doc:  string(payload[int(kindLen)+int(keyLen):]),
		}
		entries = append(entries, e)
		good += int64(len(hdr) + len(body))
	}
}

// appendFrame encodes one frame onto buf and returns the extended slice.
func appendFrame(buf []byte, e Entry) ([]byte, error) {
	if err := validateEntry(e); err != nil {
		return nil, err
	}
	start := len(buf)
	var hdr [walHeaderLen]byte
	hdr[0], hdr[1] = walMagic[0], walMagic[1]
	hdr[2] = e.Op
	binary.BigEndian.PutUint16(hdr[3:5], uint16(len(e.Kind)))
	binary.BigEndian.PutUint16(hdr[5:7], uint16(len(e.Key)))
	binary.BigEndian.PutUint32(hdr[7:11], uint32(len(e.Doc)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, e.Kind...)
	buf = append(buf, e.Key...)
	buf = append(buf, e.Doc...)
	crc := crc32.ChecksumIEEE(buf[start:])
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...), nil
}
