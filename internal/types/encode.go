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
// into a caller-supplied buffer, DecodeTuple decodes into a caller-supplied
// tuple when capacity allows.

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

// DecodeTuple decodes a record produced by EncodeTuple. The returned tuple
// does not alias data: string payloads are copied so the page buffer they
// came from may be evicted or overwritten.
func DecodeTuple(data []byte) (Tuple, error) {
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return nil, fmt.Errorf("types: corrupt record header")
	}
	data = data[read:]
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(data) == 0 {
			return nil, fmt.Errorf("types: truncated record at value %d", i)
		}
		kind := Kind(data[0])
		data = data[1:]
		switch kind {
		case KindNull:
			t = append(t, Null())
		case KindInt, KindDate:
			v, read := binary.Varint(data)
			if read <= 0 {
				return nil, fmt.Errorf("types: corrupt integer at value %d", i)
			}
			data = data[read:]
			if kind == KindInt {
				t = append(t, NewInt(v))
			} else {
				t = append(t, NewDateFromDays(v))
			}
		case KindFloat:
			if len(data) < 8 {
				return nil, fmt.Errorf("types: corrupt float at value %d", i)
			}
			t = append(t, NewFloat(math.Float64frombits(binary.BigEndian.Uint64(data))))
			data = data[8:]
		case KindBool:
			if len(data) < 1 {
				return nil, fmt.Errorf("types: corrupt bool at value %d", i)
			}
			t = append(t, NewBool(data[0] != 0))
			data = data[1:]
		case KindString:
			l, read := binary.Uvarint(data)
			if read <= 0 {
				return nil, fmt.Errorf("types: corrupt string length at value %d", i)
			}
			data = data[read:]
			if uint64(len(data)) < l {
				return nil, fmt.Errorf("types: truncated string at value %d", i)
			}
			t = append(t, NewString(string(data[:l])))
			data = data[l:]
		default:
			return nil, fmt.Errorf("types: unknown value kind %d at value %d", kind, i)
		}
	}
	return t, nil
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
			dst = append(dst, 0x03)
			// Escape 0x00 as 0x00 0xFF and terminate with 0x00 0x00 so that
			// prefixes sort before their extensions.
			for i := 0; i < len(v.s); i++ {
				b := v.s[i]
				dst = append(dst, b)
				if b == 0x00 {
					dst = append(dst, 0xFF)
				}
			}
			dst = append(dst, 0x00, 0x00)
		}
	}
	return dst
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
