// Package wal implements the write-ahead log of the transaction layer.
// As the paper describes, Vectorwise "uses a Write Ahead Log that logs
// PDTs as they are committed": each committed transaction appends one
// data record per written table containing its serialized (rebased) PDT,
// followed by a commit marker. Recovery replays committed transactions
// in LSN order, re-propagating each PDT onto the table's master PDT.
//
// Record framing (little-endian):
//
//	len   uint32  — payload length
//	crc   uint32  — IEEE CRC-32 of payload
//	payload:
//	  lsn    uint64
//	  txn    uint64
//	  kind   byte   (1 = data, 2 = commit)
//	  tblLen uint16 | table name | pdt bytes   (data records only)
//
// A torn tail (partial final record or CRC mismatch) is detected on
// replay and truncated, the standard WAL recovery contract.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// RecordKind discriminates log records.
type RecordKind byte

// Log record kinds.
const (
	// KindData carries one table's serialized PDT for a transaction.
	KindData RecordKind = 1
	// KindCommit marks the transaction as durably committed.
	KindCommit RecordKind = 2
	// KindReset is the sentinel Reset writes after truncating the log.
	// Its only job is to carry the pre-truncation LSN forward, so LSNs
	// stay monotonic for the life of the database even across resets —
	// the property that lets table images record an applied-LSN
	// watermark and recovery skip records already folded into them.
	KindReset RecordKind = 3
)

// Record is one log entry.
type Record struct {
	LSN   uint64
	Txn   uint64
	Kind  RecordKind
	Table string // data records only
	Data  []byte // serialized PDT, data records only
}

// Log is an append-only write-ahead log.
type Log struct {
	f       *os.File
	nextLSN uint64
	// fresh is set while the file holds nothing a Reset would drop (it is
	// empty, or just a reset sentinel), so resetting an idle log costs no
	// I/O.
	fresh bool
}

// Open opens (creating if needed) the log at path and replays existing
// records. A corrupt or torn tail is truncated. The returned records are
// every intact record in LSN order.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, validLen, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{f: f, nextLSN: 1}
	if len(recs) > 0 {
		l.nextLSN = recs[len(recs)-1].LSN + 1
	}
	l.fresh = len(recs) == 0 || (len(recs) == 1 && recs[0].Kind == KindReset)
	return l, recs, nil
}

// scan reads intact records and returns them with the valid byte length.
func scan(f *os.File) ([]Record, int64, error) {
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	off := int64(0)
	for int(off)+8 <= len(raw) {
		plen := binary.LittleEndian.Uint32(raw[off:])
		crc := binary.LittleEndian.Uint32(raw[off+4:])
		if int(off)+8+int(plen) > len(raw) {
			break // torn tail
		}
		payload := raw[off+8 : off+8+int64(plen)]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt tail
		}
		rec, perr := decodePayload(payload)
		if perr != nil {
			break
		}
		recs = append(recs, rec)
		off += 8 + int64(plen)
	}
	return recs, off, nil
}

func decodePayload(p []byte) (Record, error) {
	if len(p) < 17 {
		return Record{}, fmt.Errorf("wal: short payload")
	}
	rec := Record{
		LSN:  binary.LittleEndian.Uint64(p[0:]),
		Txn:  binary.LittleEndian.Uint64(p[8:]),
		Kind: RecordKind(p[16]),
	}
	p = p[17:]
	if rec.Kind == KindData {
		if len(p) < 2 {
			return Record{}, fmt.Errorf("wal: short table name")
		}
		tl := binary.LittleEndian.Uint16(p)
		if len(p) < 2+int(tl) {
			return Record{}, fmt.Errorf("wal: short table name")
		}
		rec.Table = string(p[2 : 2+tl])
		rec.Data = append([]byte(nil), p[2+tl:]...)
	}
	return rec, nil
}

// Append writes a record, assigns its LSN and flushes it to disk.
func (l *Log) Append(txn uint64, kind RecordKind, table string, data []byte) (uint64, error) {
	lsn := l.nextLSN
	payload := make([]byte, 17, 19+len(table)+len(data))
	binary.LittleEndian.PutUint64(payload[0:], lsn)
	binary.LittleEndian.PutUint64(payload[8:], txn)
	payload[16] = byte(kind)
	if kind == KindData {
		var tl [2]byte
		binary.LittleEndian.PutUint16(tl[:], uint16(len(table)))
		payload = append(payload, tl[:]...)
		payload = append(payload, table...)
		payload = append(payload, data...)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.f.Write(payload); err != nil {
		return 0, err
	}
	l.nextLSN = lsn + 1
	l.fresh = false
	return lsn, nil
}

// Sync forces the log to stable storage (group-commit point).
func (l *Log) Sync() error { return l.f.Sync() }

// Reset truncates the log once every logged change is durable in the
// table files (txn.Manager.TruncateWALIfClean, its one caller, decides).
// The LSN sequence is NOT reset: a KindReset sentinel carrying the next
// LSN is written first, so records appended after the reset (and after
// a crash-reopen of the truncated log) keep strictly increasing LSNs.
// Applied-LSN watermarks recorded in table images therefore stay
// comparable across resets. Resetting a log that holds nothing but its
// sentinel is a no-op.
func (l *Log) Reset() error {
	if l.fresh {
		return nil
	}
	next := l.nextLSN
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.nextLSN = next
	if _, err := l.Append(0, KindReset, "", nil); err != nil {
		return err
	}
	l.fresh = true
	return l.f.Sync()
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// CommittedTxns filters replayed records down to the data records of
// transactions that reached their commit marker, in original LSN order.
func CommittedTxns(recs []Record) []Record {
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.Kind == KindCommit {
			committed[r.Txn] = true
		}
	}
	var out []Record
	for _, r := range recs {
		if r.Kind == KindData && committed[r.Txn] {
			out = append(out, r)
		}
	}
	return out
}
