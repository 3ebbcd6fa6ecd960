package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// VersionHeaderSize is the fixed number of bytes prepended to every heap
// record to carry its MVCC metadata. The header is fixed-width on purpose:
// stamping xmax on commit-time deletes and updates rewrites the header in
// place (an equal-length Page.update never relocates the record), so record
// identifiers held by concurrent snapshots and index entries stay valid.
const VersionHeaderSize = 24

// headerFlagHasPrev marks a header whose Prev field points at the older
// version this one superseded.
const headerFlagHasPrev = 1 << 0

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
// Prev links to the older version this one replaced (HasPrev reports whether
// the link is set). The chain is newest-to-oldest and is consulted by the
// version garbage collector and debugging tools, not by scans: every version
// is indexed, so visibility is decided per record id at fetch time.
type VersionMeta struct {
	Xmin    uint64
	Xmax    uint64
	Prev    RecordID
	HasPrev bool
}

// EncodeVersion prepends the version header to payload, returning the heap
// record image.
func EncodeVersion(m VersionMeta, payload []byte) []byte {
	rec := make([]byte, VersionHeaderSize+len(payload))
	putVersionHeader(rec, m)
	copy(rec[VersionHeaderSize:], payload)
	return rec
}

func putVersionHeader(dst []byte, m VersionMeta) {
	binary.LittleEndian.PutUint64(dst[0:8], m.Xmin)
	binary.LittleEndian.PutUint64(dst[8:16], m.Xmax)
	binary.LittleEndian.PutUint32(dst[16:20], uint32(m.Prev.Page))
	binary.LittleEndian.PutUint16(dst[20:22], m.Prev.Slot)
	var flags uint16
	if m.HasPrev {
		flags |= headerFlagHasPrev
	}
	binary.LittleEndian.PutUint16(dst[22:24], flags)
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
	if binary.LittleEndian.Uint16(rec[22:24])&headerFlagHasPrev != 0 {
		m.HasPrev = true
		m.Prev = RecordID{
			Page: PageID(binary.LittleEndian.Uint32(rec[16:20])),
			Slot: binary.LittleEndian.Uint16(rec[20:22]),
		}
	}
	return m, rec[VersionHeaderSize:], nil
}

// InsertVersion stores payload as a new row version stamped with meta.
func (h *HeapFile) InsertVersion(meta VersionMeta, payload []byte) (RecordID, error) {
	return h.insert(EncodeVersion(meta, payload))
}

// GetVersion returns the version header and a copy of the payload at rid.
func (h *HeapFile) GetVersion(rid RecordID) (VersionMeta, []byte, error) {
	rec, err := h.get(rid)
	if err != nil {
		return VersionMeta{}, nil, err
	}
	meta, payload, err := DecodeVersion(rec)
	if err != nil {
		return VersionMeta{}, nil, err
	}
	return meta, payload, nil
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
