package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// VersionHeaderSize is the fixed number of bytes prepended to every heap
// record to carry its MVCC metadata: xmin, then xmax, 8 bytes each. The
// header is fixed-width on purpose: SetXmax rewrites xmax in the page bytes
// and never moves the record, so record identifiers held by concurrent
// snapshots and index entries stay valid.
const VersionHeaderSize = 16

// ErrNotVersioned reports a heap record too short to carry a version header.
var ErrNotVersioned = errors.New("storage: record has no version header")

// VersionMeta is the MVCC metadata of one row version.
//
// Xmin is the id of the transaction that created the version; zero means
// "frozen" — written outside any transaction (bootstrap, direct catalog
// loads, recovery of pre-MVCC images) and visible to every snapshot.
// Xmax is the id of the transaction that deleted or superseded the version;
// zero means the version is live. Because rollback physically undoes all of
// a transaction's writes, any non-zero stamp that survives belongs to a
// transaction that either committed or is still in flight.
//
// There is no link between the versions of a row: every version is
// indexed, so visibility is decided per record id at fetch time, and the
// garbage collector walks each table's unsettled versions.
type VersionMeta struct {
	Xmin uint64
	Xmax uint64
}

// appendVersion appends the heap record image of a version, the header and
// then payload, to dst.
func appendVersion(dst []byte, m VersionMeta, payload []byte) []byte {
	dst = slices.Grow(dst, VersionHeaderSize+len(payload))
	dst = binary.LittleEndian.AppendUint64(dst, m.Xmin)
	dst = binary.LittleEndian.AppendUint64(dst, m.Xmax)
	return append(dst, payload...)
}

// DecodeVersion splits a heap record image into its version header and
// payload. The returned payload aliases rec.
func DecodeVersion(rec []byte) (VersionMeta, []byte, error) {
	if len(rec) < VersionHeaderSize {
		return VersionMeta{}, nil, fmt.Errorf("%w: %d bytes", ErrNotVersioned, len(rec))
	}
	m := VersionMeta{
		Xmin: binary.LittleEndian.Uint64(rec[0:8]),
		Xmax: binary.LittleEndian.Uint64(rec[8:16]),
	}
	return m, rec[VersionHeaderSize:], nil
}

// InsertVersion stores payload as a new row version stamped with meta. The
// record is joined from its header and payload in the heap's append buffer.
func (h *HeapFile) InsertVersion(meta VersionMeta, payload []byte) (RecordID, error) {
	var header [VersionHeaderSize]byte
	return h.insert(appendVersion(header[:0], meta, nil), payload)
}

// InsertVersions stores each payloads[i] as a new row version stamped with
// metas[i] and writes its identifier into rids[i]. It appends the batch with
// the last page pinned while it fills, building every record in one reused
// buffer: one page fetch per page written, not one per row.
func (h *HeapFile) InsertVersions(metas []VersionMeta, payloads [][]byte, rids []RecordID) error {
	return h.append(rids, func(i int, buf []byte) []byte {
		return appendVersion(buf[:0], metas[i], payloads[i])
	})
}

// ViewVersion calls fn with the version header at rid and its payload, read
// in place: payload aliases the page's buffer-pool frame and is valid only
// until fn returns, so fn copies out whatever it keeps. fn runs under the
// heap's read latch and the page's pin, which hold off writers to the heap
// and eviction of the page; it must not call back into the heap or the
// buffer pool. A missing record is ErrRecordNotFound, and fn's own error is
// returned as it is.
func (h *HeapFile) ViewVersion(rid RecordID, fn func(meta VersionMeta, payload []byte) error) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if !h.owns(rid.Page) {
		return ErrRecordNotFound
	}
	page, err := h.pool.fetch(rid.Page)
	if err != nil {
		return err
	}
	raw, err := page.get(int(rid.Slot))
	if err != nil {
		err = ErrRecordNotFound
	} else if meta, payload, decodeErr := DecodeVersion(raw); decodeErr != nil {
		err = decodeErr
	} else {
		err = fn(meta, payload)
	}
	if unpinErr := h.pool.unpin(rid.Page, false); unpinErr != nil {
		return errors.Join(err, unpinErr)
	}
	return err
}

// GetVersion returns the version header and a copy of the payload at rid:
// ViewVersion for a caller that keeps the payload.
func (h *HeapFile) GetVersion(rid RecordID) (meta VersionMeta, payload []byte, err error) {
	err = h.ViewVersion(rid, func(m VersionMeta, p []byte) error {
		meta, payload = m, append([]byte(nil), p...)
		return nil
	})
	return meta, payload, err
}

// SetXmax stamps the deleting/superseding transaction id into the version
// header at rid, in place. Passing zero clears the stamp (rollback undo). It
// returns the stamped header and a copy of the payload, read in the same pin.
func (h *HeapFile) SetXmax(rid RecordID, xid uint64) (VersionMeta, []byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.owns(rid.Page) {
		return VersionMeta{}, nil, ErrRecordNotFound
	}
	page, err := h.pool.fetch(rid.Page)
	if err != nil {
		return VersionMeta{}, nil, err
	}
	raw, err := page.get(int(rid.Slot))
	if err != nil {
		return VersionMeta{}, nil, errors.Join(ErrRecordNotFound, h.pool.unpin(rid.Page, false))
	}
	meta, payload, err := DecodeVersion(raw)
	if err != nil {
		return VersionMeta{}, nil, errors.Join(err, h.pool.unpin(rid.Page, false))
	}
	binary.LittleEndian.PutUint64(raw[8:16], xid)
	meta.Xmax = xid
	return meta, append([]byte(nil), payload...), h.pool.unpin(rid.Page, true)
}
