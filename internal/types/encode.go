package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tuple encoding
//
// The storage engine stores each record as an opaque byte slice; this file
// defines the encoding. The format is self-describing per value so that a
// record can be decoded without the schema (the schema is still used to
// validate on write):
//
//	record  := count:uvarint value*
//	value   := kind:byte payload
//	payload := (nothing)            for NULL
//	         | zigzag varint        for INT and DATE
//	         | 8-byte big endian    for FLOAT
//	         | 0x00 | 0x01          for BOOL
//	         | len:uvarint bytes    for TEXT
//
// The format is deliberately simple and allocation-light: EncodeTuple appends
// into a caller-supplied buffer. It is the one row encoding: heap records, log
// records, checkpoint images and the wire protocol's tuples (docs/WIRE.md §2)
// all use it. CheckEncoded and AppendEncodedKey read a record in place, so a
// row can move from one of them to another without being decoded.

// EncodeTuple appends the encoding of t to dst and returns the extended slice.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt, KindDate:
			dst = binary.AppendVarint(dst, v.i)
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindBool:
			if v.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// EncodedSize returns how many bytes EncodeTuple appends for t, so that a
// caller can encode a row into a buffer of exactly its size.
func EncodedSize(t Tuple) int {
	n := uvarintSize(uint64(len(t)))
	for _, v := range t {
		n++ // kind
		switch v.kind {
		case KindInt, KindDate:
			ux := uint64(v.i) << 1 // zigzag, as binary.AppendVarint
			if v.i < 0 {
				ux = ^ux
			}
			n += uvarintSize(ux)
		case KindFloat:
			n += 8
		case KindBool:
			n++
		case KindString:
			n += uvarintSize(uint64(len(v.s))) + len(v.s)
		}
	}
	return n
}

// uvarintSize returns how many bytes binary.AppendUvarint appends for x.
func uvarintSize(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// DecodeTuple decodes a record produced by EncodeTuple. The returned tuple
// does not alias data: string payloads are copied so the page buffer they
// came from may be evicted or overwritten.
func DecodeTuple(data []byte) (Tuple, error) {
	t, _, err := ReadTuple(data)
	return t, err
}

// ReadTuple decodes the record at the front of data, which may continue past
// it, and reports how many bytes the record took. Every value takes at least
// its kind byte, so a count larger than the bytes that follow is an error
// before anything is allocated: a hostile count costs nothing.
func ReadTuple(data []byte) (Tuple, int, error) {
	total := len(data)
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return nil, 0, fmt.Errorf("types: corrupt record header")
	}
	data = data[read:]
	if n > uint64(len(data)) {
		return nil, 0, fmt.Errorf("types: record claims %d values but only %d bytes follow", n, len(data))
	}
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(data) == 0 {
			return nil, 0, fmt.Errorf("types: truncated record at value %d", i)
		}
		kind := Kind(data[0])
		data = data[1:]
		switch kind {
		case KindNull:
			t = append(t, Null())
		case KindInt, KindDate:
			v, read := binary.Varint(data)
			if read <= 0 {
				return nil, 0, fmt.Errorf("types: corrupt integer at value %d", i)
			}
			data = data[read:]
			t = append(t, Value{kind: kind, i: v})
		case KindFloat:
			if len(data) < 8 {
				return nil, 0, fmt.Errorf("types: corrupt float at value %d", i)
			}
			t = append(t, NewFloat(math.Float64frombits(binary.BigEndian.Uint64(data))))
			data = data[8:]
		case KindBool:
			if len(data) < 1 {
				return nil, 0, fmt.Errorf("types: corrupt bool at value %d", i)
			}
			t = append(t, NewBool(data[0] != 0))
			data = data[1:]
		case KindString:
			l, read := binary.Uvarint(data)
			if read <= 0 {
				return nil, 0, fmt.Errorf("types: corrupt string length at value %d", i)
			}
			data = data[read:]
			if uint64(len(data)) < l {
				return nil, 0, fmt.Errorf("types: truncated string at value %d", i)
			}
			t = append(t, NewString(string(data[:l])))
			data = data[l:]
		default:
			return nil, 0, fmt.Errorf("types: unknown value kind %d at value %d", kind, i)
		}
	}
	return t, total - len(data), nil
}

// DecodeColumns decodes the record at the front of data into dst's array,
// growing it only when the record has more values than dst can hold, and
// returns it. The values at the positions want marks are decoded as
// ReadTuple decodes them; every other value is checked against the value
// grammar, as ReadTuple checks it, skipped and read as NULL. A caller that
// folds many records through one tuple and names only some of their columns
// allocates nothing per record unless a named value is TEXT. On an error the
// tuple's contents are undefined.
func DecodeColumns(dst Tuple, data []byte, want []bool) (Tuple, error) {
	n, data, err := readCount(data)
	if err != nil {
		return dst, err
	}
	if uint64(cap(dst)) < n {
		dst = make(Tuple, n)
	}
	dst = dst[:n]
	for i := range dst {
		kind, body, rest, err := splitValue(data, uint64(i))
		if err != nil {
			return dst, err
		}
		data = rest
		if i >= len(want) || !want[i] {
			dst[i] = Null()
			continue
		}
		switch kind {
		case KindNull:
			dst[i] = Null()
		case KindInt, KindDate:
			v, _ := binary.Varint(body)
			dst[i] = Value{kind: kind, i: v}
		case KindFloat:
			dst[i] = NewFloat(math.Float64frombits(binary.BigEndian.Uint64(body)))
		case KindBool:
			dst[i] = NewBool(body[0] != 0)
		case KindString:
			dst[i] = NewString(string(body))
		}
	}
	return dst, nil
}

// readCount reads a record's value count and returns it with the bytes that
// follow, refusing a count larger than those bytes.
func readCount(data []byte) (uint64, []byte, error) {
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return 0, nil, fmt.Errorf("types: corrupt record header")
	}
	data = data[read:]
	if n > uint64(len(data)) {
		return 0, nil, fmt.Errorf("types: record claims %d values but only %d bytes follow", n, len(data))
	}
	return n, data, nil
}

// splitValue splits the i-th value of a record off the front of data: its
// kind, its body (the varint of an INT or DATE, the 8 bytes of a FLOAT, the
// byte of a BOOL, the bytes of a TEXT after their length; nothing for NULL)
// and the bytes that follow it. It reads the value grammar for the readers
// that build no Value or only some (DecodeColumns); ReadTuple keeps its own
// loop, the one every whole-row decode runs, and FuzzCheckEncoded holds them
// all to the same verdicts.
func splitValue(data []byte, i uint64) (kind Kind, body, rest []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil, fmt.Errorf("types: truncated record at value %d", i)
	}
	kind, data = Kind(data[0]), data[1:]
	size := 0
	switch kind {
	case KindNull:
	case KindInt, KindDate:
		if _, size = binary.Varint(data); size <= 0 {
			return 0, nil, nil, fmt.Errorf("types: corrupt integer at value %d", i)
		}
	case KindFloat:
		if size = 8; len(data) < size {
			return 0, nil, nil, fmt.Errorf("types: corrupt float at value %d", i)
		}
	case KindBool:
		if size = 1; len(data) < size {
			return 0, nil, nil, fmt.Errorf("types: corrupt bool at value %d", i)
		}
	case KindString:
		l, read := binary.Uvarint(data)
		if read <= 0 {
			return 0, nil, nil, fmt.Errorf("types: corrupt string length at value %d", i)
		}
		data = data[read:]
		if uint64(len(data)) < l {
			return 0, nil, nil, fmt.Errorf("types: truncated string at value %d", i)
		}
		size = int(l)
	default:
		return 0, nil, nil, fmt.Errorf("types: unknown value kind %d at value %d", kind, i)
	}
	return kind, data[:size], data[size:], nil
}

// CheckEncoded reports whether data is exactly one record of a row that s
// accepts as it stands: one value per column, each of its column's kind or a
// NULL where the column allows one, every length within the data and no byte
// past the record. It is ValidateAgainst for an encoded row, except that a
// value of another kind is refused rather than cast, and it allocates
// nothing unless it fails.
func CheckEncoded(data []byte, s *Schema) error {
	n, data, err := readCount(data)
	if err != nil {
		return err
	}
	if n != uint64(len(s.Columns)) {
		return fmt.Errorf("types: record has %d values, schema %s has %d columns", n, s, len(s.Columns))
	}
	for i, c := range s.Columns {
		kind, _, rest, err := splitValue(data, uint64(i))
		if err != nil {
			return err
		}
		data = rest
		switch {
		case kind == KindNull:
			if c.NotNull || c.PrimaryKey {
				return fmt.Errorf("types: column %q must not be NULL", c.Name)
			}
		case kind != c.Type:
			return fmt.Errorf("types: column %q holds a %s value, not %s", c.Name, kind, c.Type)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("types: %d bytes follow the record", len(data))
	}
	return nil
}

// EncodeKey builds an order-preserving byte encoding of the given values, for
// use as B+tree keys: comparing two encoded keys bytewise orders the same way
// as comparing the tuples value-by-value with Value.Compare.
//
// Layout per value: a tag byte (NULL sorts first), then a payload whose
// bytewise order matches value order.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.kind {
		case KindNull:
			dst = append(dst, 0x00)
		case KindInt, KindDate:
			dst = append(dst, 0x01)
			dst = appendOrderedFloat(dst, float64(v.i))
		case KindFloat:
			dst = append(dst, 0x01)
			dst = appendOrderedFloat(dst, v.f)
		case KindBool:
			dst = append(dst, 0x02)
			if v.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindString:
			dst = appendKeyText(dst, v.s)
		}
	}
	return dst
}

// AppendEncodedKey appends the index key of the columns cols of the record
// data to dst, without decoding the record: the bytes equal
// EncodeKey(dst, row[cols[0]], row[cols[1]], ...) for row = DecodeTuple(data).
// It fails only when data is not a record or has no column cols[i].
func AppendEncodedKey(dst, data []byte, cols []int) ([]byte, error) {
	n, values, err := readCount(data)
	if err != nil {
		return dst, err
	}
	for _, col := range cols {
		if col < 0 || uint64(col) >= n {
			return dst, fmt.Errorf("types: record has %d values, no column %d", n, col)
		}
		var (
			kind Kind
			body []byte
		)
		rest := values
		for i := 0; i <= col; i++ {
			if kind, body, rest, err = splitValue(rest, uint64(i)); err != nil {
				return dst, err
			}
		}
		switch kind {
		case KindNull:
			dst = append(dst, 0x00)
		case KindInt, KindDate:
			v, _ := binary.Varint(body)
			dst = append(dst, 0x01)
			dst = appendOrderedFloat(dst, float64(v))
		case KindFloat:
			dst = append(dst, 0x01)
			dst = appendOrderedFloat(dst, math.Float64frombits(binary.BigEndian.Uint64(body)))
		case KindBool:
			dst = append(dst, 0x02)
			if body[0] != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindString:
			dst = appendKeyText(dst, body)
		}
	}
	return dst, nil
}

// appendKeyText appends the key encoding of a TEXT value: a tag, the bytes
// with 0x00 escaped as 0x00 0xFF, and a 0x00 0x00 terminator, so that
// prefixes sort before their extensions.
func appendKeyText[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, 0x03)
	for i := 0; i < len(s); i++ {
		b := s[i]
		dst = append(dst, b)
		if b == 0x00 {
			dst = append(dst, 0xFF)
		}
	}
	return append(dst, 0x00, 0x00)
}

// appendOrderedFloat appends an 8-byte encoding of f whose bytewise order
// matches numeric order (flip the sign bit for positives, flip all bits for
// negatives).
func appendOrderedFloat(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(dst, u)
}
