// Package wal implements ARIES-style write-ahead logging and recovery in the
// spirit of the logging subsystem the paper's Shore-MT substrate provides:
// every record modification produces a log record with before/after images,
// transactions commit by forcing the log, aborts roll back by walking the
// transaction's log chain backwards writing compensation records, and restart
// recovery runs the classic analysis / redo / undo passes.
package wal

import (
	"encoding/binary"
	"fmt"

	"dora/internal/storage"
)

// LSN is a log sequence number: the byte offset of a record in the log.
type LSN uint64

// NilLSN marks "no LSN" (start of a transaction's chain).
const NilLSN LSN = 0

// TxnID identifies a transaction in log records.
type TxnID uint64

// RecordType enumerates the log record types.
type RecordType uint8

const (
	// RecBegin marks the start of a transaction.
	RecBegin RecordType = iota
	// RecCommit marks a committed transaction; the log must be forced up to
	// and including this record before the commit is acknowledged.
	RecCommit
	// RecAbort marks the start of rollback for a transaction.
	RecAbort
	// RecEnd marks the end of a transaction (after commit or full rollback).
	RecEnd
	// RecInsert logs a record insertion (redo: re-insert, undo: delete).
	RecInsert
	// RecDelete logs a record deletion (redo: delete, undo: re-insert).
	RecDelete
	// RecUpdate logs a record update (redo: apply after image, undo: apply
	// before image).
	RecUpdate
	// RecCLR is a compensation log record written during rollback; it is
	// redo-only and carries UndoNext pointing at the next record to undo.
	RecCLR
	// RecCheckpoint is a fuzzy checkpoint holding the active transaction
	// table, used by analysis to bound the log scan.
	RecCheckpoint
	// RecSchema logs a table creation (After carries the serialized table
	// definition) so a restarted process can rebuild its catalog from the
	// log alone before replaying any change record.
	RecSchema
)

// String returns the log record type mnemonic.
func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecEnd:
		return "END"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecSchema:
		return "SCHEMA"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is a single log record. Payload interpretation depends on Type:
// Insert carries the after image, Delete the before image, Update both, and
// CLR the redo image of the compensating change.
type Record struct {
	LSN     LSN
	PrevLSN LSN // previous record of the same transaction
	Txn     TxnID
	Type    RecordType

	TableID uint32
	RID     storage.RID
	Before  []byte
	After   []byte

	// UndoNext is used by CLRs: the LSN of the next record of this
	// transaction that still needs undoing (the PrevLSN of the record this
	// CLR compensates).
	UndoNext LSN

	// Epoch is used by END records of committed transactions: the commit
	// epoch stamped on the transaction's versions. It is assigned after the
	// commit record is durable (the epoch counter advances at group-commit),
	// which is why it cannot ride the COMMIT record itself. Recovery restores
	// the engine's visible epoch from the maximum over all END records.
	Epoch uint64

	// ActiveTxns is used by checkpoint records: the transactions active at
	// checkpoint time and their last LSNs.
	ActiveTxns map[TxnID]LSN
}

// encodedSize returns the number of bytes the record occupies in the log,
// including its length prefix.
func (r *Record) encodedSize() int {
	n := 4 + // length prefix
		8 + 8 + 8 + 1 + // lsn, prevLSN, txn, type
		4 + 4 + 2 + // tableID, rid.page, rid.slot
		8 + // undoNext
		8 + // epoch
		4 + len(r.Before) +
		4 + len(r.After) +
		4 + len(r.ActiveTxns)*16
	return n
}

// encode appends the record's binary form to dst.
func (r *Record) encode(dst []byte) []byte {
	size := r.encodedSize()
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(size))
	dst = append(dst, b8[:4]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(r.LSN))
	dst = append(dst, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(r.PrevLSN))
	dst = append(dst, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(r.Txn))
	dst = append(dst, b8[:]...)
	dst = append(dst, byte(r.Type))
	binary.LittleEndian.PutUint32(b8[:4], r.TableID)
	dst = append(dst, b8[:4]...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(r.RID.Page))
	dst = append(dst, b8[:4]...)
	binary.LittleEndian.PutUint16(b8[:2], r.RID.Slot)
	dst = append(dst, b8[:2]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(r.UndoNext))
	dst = append(dst, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], r.Epoch)
	dst = append(dst, b8[:]...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(r.Before)))
	dst = append(dst, b8[:4]...)
	dst = append(dst, r.Before...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(r.After)))
	dst = append(dst, b8[:4]...)
	dst = append(dst, r.After...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(r.ActiveTxns)))
	dst = append(dst, b8[:4]...)
	for txn, lsn := range r.ActiveTxns {
		binary.LittleEndian.PutUint64(b8[:], uint64(txn))
		dst = append(dst, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], uint64(lsn))
		dst = append(dst, b8[:]...)
	}
	return dst
}

// decodeRecord decodes one record from data, returning the record and the
// number of bytes consumed.
func decodeRecord(data []byte) (*Record, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("wal: truncated record header")
	}
	size := int(binary.LittleEndian.Uint32(data[:4]))
	if size < 4 || len(data) < size {
		return nil, 0, fmt.Errorf("wal: truncated record (want %d bytes, have %d)", size, len(data))
	}
	buf := data[4:size]
	r := &Record{}
	need := func(n int) error {
		if len(buf) < n {
			return fmt.Errorf("wal: corrupt record body")
		}
		return nil
	}
	if err := need(8 + 8 + 8 + 1 + 4 + 4 + 2 + 8 + 8); err != nil {
		return nil, 0, err
	}
	r.LSN = LSN(binary.LittleEndian.Uint64(buf[:8]))
	buf = buf[8:]
	r.PrevLSN = LSN(binary.LittleEndian.Uint64(buf[:8]))
	buf = buf[8:]
	r.Txn = TxnID(binary.LittleEndian.Uint64(buf[:8]))
	buf = buf[8:]
	r.Type = RecordType(buf[0])
	buf = buf[1:]
	r.TableID = binary.LittleEndian.Uint32(buf[:4])
	buf = buf[4:]
	r.RID.Page = storage.PageID(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	r.RID.Slot = binary.LittleEndian.Uint16(buf[:2])
	buf = buf[2:]
	r.UndoNext = LSN(binary.LittleEndian.Uint64(buf[:8]))
	buf = buf[8:]
	r.Epoch = binary.LittleEndian.Uint64(buf[:8])
	buf = buf[8:]

	if err := need(4); err != nil {
		return nil, 0, err
	}
	bl := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if err := need(bl); err != nil {
		return nil, 0, err
	}
	if bl > 0 {
		r.Before = append([]byte(nil), buf[:bl]...)
	}
	buf = buf[bl:]

	if err := need(4); err != nil {
		return nil, 0, err
	}
	al := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if err := need(al); err != nil {
		return nil, 0, err
	}
	if al > 0 {
		r.After = append([]byte(nil), buf[:al]...)
	}
	buf = buf[al:]

	if err := need(4); err != nil {
		return nil, 0, err
	}
	na := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if na > 0 {
		if err := need(na * 16); err != nil {
			return nil, 0, err
		}
		r.ActiveTxns = make(map[TxnID]LSN, na)
		for i := 0; i < na; i++ {
			txn := TxnID(binary.LittleEndian.Uint64(buf[:8]))
			lsn := LSN(binary.LittleEndian.Uint64(buf[8:16]))
			r.ActiveTxns[txn] = lsn
			buf = buf[16:]
		}
	}
	return r, size, nil
}

// String renders the record for debugging and trace output.
func (r *Record) String() string {
	return fmt.Sprintf("[%d] txn=%d %s table=%d rid=%s prev=%d",
		r.LSN, r.Txn, r.Type, r.TableID, r.RID, r.PrevLSN)
}
