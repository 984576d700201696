package adm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file provides byte-level access to encoded values: skipping, walking
// record fields, and validating against a RecordType — all without
// materializing Values. The frame-at-a-time storage write path uses these to
// validate records and extract index keys straight from the serialized
// bytes, avoiding the decode→re-encode round trip of record-at-a-time
// insertion.

// SkipValue returns the encoded length of the single value at the front of
// buf, verifying that the encoding is structurally well-formed (no truncated
// payloads, no unknown tags).
func SkipValue(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: skip of empty buffer")
	}
	tag := TypeTag(buf[0])
	pos := 1
	switch tag {
	case TagMissing, TagNull:
		return pos, nil
	case TagBoolean:
		pos++
		if len(buf) < pos {
			return 0, errTruncated(tag)
		}
		return pos, nil
	case TagInt64, TagDatetime:
		_, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		return pos + n, nil
	case TagDouble:
		pos += 8
	case TagPoint:
		pos += 16
	case TagRectangle:
		pos += 32
	case TagString:
		ln, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(tag)
		}
		pos += int(ln)
	case TagOrderedList, TagUnorderedList:
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if cnt > uint64(len(buf)-pos) {
			return 0, errTruncated(tag)
		}
		for i := uint64(0); i < cnt; i++ {
			used, err := SkipValue(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += used
		}
		return pos, nil
	case TagRecord:
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if cnt > uint64(len(buf)-pos) {
			return 0, errTruncated(tag)
		}
		for i := uint64(0); i < cnt; i++ {
			ln, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return 0, errTruncated(tag)
			}
			pos += n
			if uint64(len(buf)-pos) < ln {
				return 0, errTruncated(tag)
			}
			pos += int(ln)
			used, err := SkipValue(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += used
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("adm: unknown tag 0x%02x", buf[0])
	}
	if len(buf) < pos {
		return 0, errTruncated(tag)
	}
	return pos, nil
}

// ScanRecordFields walks the top-level fields of the encoded record at the
// front of buf, invoking fn with each field's name and encoded value — both
// sub-slices of buf, valid only until buf is modified. fn returning false
// stops the walk early (without error). Returns the total encoded length of
// the record, or, on an early stop, the bytes consumed up to and including
// the last visited field.
func ScanRecordFields(buf []byte, fn func(name, encValue []byte) bool) (int, error) {
	if len(buf) == 0 || TypeTag(buf[0]) != TagRecord {
		return 0, fmt.Errorf("adm: scan of non-record value")
	}
	pos := 1
	cnt, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, errTruncated(TagRecord)
	}
	pos += n
	if cnt > uint64(len(buf)-pos) {
		return 0, errTruncated(TagRecord)
	}
	for i := uint64(0); i < cnt; i++ {
		ln, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(TagRecord)
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(TagRecord)
		}
		name := buf[pos : pos+int(ln)]
		pos += int(ln)
		used, err := SkipValue(buf[pos:])
		if err != nil {
			return 0, err
		}
		if !fn(name, buf[pos:pos+used]) {
			return pos + used, nil
		}
		pos += used
	}
	return pos, nil
}

// validateEncodedMaxFields bounds the allocation-free duplicate/seen
// tracking in ValidateEncoded; wider records fall back to a full decode.
const validateEncodedMaxFields = 64

// ValidateEncoded reports whether the single encoded value in buf conforms
// to the record type, with the same outcome as DecodeOne followed by
// Validate — including rejection of trailing bytes, duplicate field names
// at any depth, and (for closed types) undeclared fields — without
// materializing the record. Nested record types and list items are checked
// recursively from the bytes. Only a record (at any depth) wider than an
// internal bound, or a field whose Type is implemented outside this
// package, makes it fall back to decoding the whole value.
func (r *RecordType) ValidateEncoded(buf []byte) error {
	n, err := validateEncoded(r, buf)
	if errors.Is(err, errValidateFallback) {
		return r.validateDecoded(buf)
	}
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("adm: %d trailing bytes after value", len(buf)-n)
	}
	return nil
}

// errValidateFallback is an internal sentinel: the byte-level walk met a
// record too wide for its fixed-size tracking, or a foreign Type, and the
// caller should decode.
var errValidateFallback = errors.New("adm: validate fallback")

func (r *RecordType) validateDecoded(buf []byte) error {
	v, err := DecodeOne(buf)
	if err != nil {
		return err
	}
	return r.Validate(v)
}

// validateEncoded checks the encoded value at the front of buf as
// t.Validate checks its decoded form, and returns the value's length. A nil
// t admits any value, checking only what Decode checks: well-formed bytes
// and no duplicate field names in any record.
func validateEncoded(t Type, buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: decode of empty buffer")
	}
	tag := TypeTag(buf[0])
	switch t := t.(type) {
	case nil:
		switch tag {
		case TagRecord:
			return validateEncodedRecord(nil, buf)
		case TagOrderedList, TagUnorderedList:
			return validateEncodedList(nil, "", buf)
		}
		return SkipValue(buf)
	case *PrimitiveType:
		if tag != t.tag && !(t.tag == TagDouble && tag == TagInt64) {
			return 0, fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
		}
		return SkipValue(buf)
	case *RecordType:
		if tag != TagRecord {
			return 0, fmt.Errorf("adm: value of type %s does not conform to record type %s", tag, t.Name())
		}
		return validateEncodedRecord(t, buf)
	case *OrderedListType:
		if tag != TagOrderedList {
			return 0, fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
		}
		return validateEncodedList(t.Item, "list", buf)
	case *UnorderedListType:
		if tag != TagUnorderedList {
			return 0, fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
		}
		return validateEncodedList(t.Item, "bag", buf)
	}
	return 0, errValidateFallback
}

// validateEncodedList checks every item of the encoded list at the front of
// buf against item (nil: any) and returns the list's length. kind names the
// list in errors, as the list types' Validate does.
func validateEncodedList(item Type, kind string, buf []byte) (int, error) {
	tag := TypeTag(buf[0])
	pos := 1
	cnt, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, errTruncated(tag)
	}
	pos += n
	if cnt > uint64(len(buf)-pos) {
		return 0, errTruncated(tag)
	}
	for i := uint64(0); i < cnt; i++ {
		used, err := validateEncoded(item, buf[pos:])
		if err != nil {
			if item == nil || errors.Is(err, errValidateFallback) {
				return 0, err
			}
			return 0, fmt.Errorf("adm: %s item %d: %w", kind, i, err)
		}
		pos += used
	}
	return pos, nil
}

// validateEncodedRecord checks the encoded record at the front of buf
// against r (nil: any record) and returns the record's length.
func validateEncodedRecord(r *RecordType, buf []byte) (int, error) {
	if r != nil && len(r.fields) > validateEncodedMaxFields {
		return 0, errValidateFallback
	}
	pos := 1
	cnt, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, errTruncated(TagRecord)
	}
	pos += n
	if cnt > uint64(len(buf)-pos) {
		return 0, errTruncated(TagRecord)
	}
	if cnt > validateEncodedMaxFields {
		return 0, errValidateFallback
	}
	// Duplicate field names are invalid regardless of the type; the decode
	// path rejects them in NewRecord. A repeated declared name shows in
	// seen; undeclared names, when there are two or more, are compared
	// after the walk.
	var seen [validateEncodedMaxFields]bool
	nUndeclared := 0
	for i := 0; i < int(cnt); i++ {
		ln, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(TagRecord)
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(TagRecord)
		}
		name := buf[pos : pos+int(ln)]
		pos += int(ln)
		idx := -1
		if r != nil {
			idx = r.fieldIndex(i, name)
		}
		// ft stays nil for undeclared fields and for absent optional ones:
		// their values need only be well-formed.
		var ft Type
		var f *Field
		if idx < 0 {
			if r != nil && !r.open {
				return 0, fmt.Errorf("adm: undeclared field %q in closed type %s", name, r.Name())
			}
			nUndeclared++
		} else {
			if seen[idx] {
				return 0, fmt.Errorf("adm: duplicate field %q in record", name)
			}
			seen[idx] = true
			f = &r.fields[idx]
			ft = f.Type
			if pos < len(buf) {
				switch TypeTag(buf[pos]) {
				case TagMissing:
					if !f.Optional {
						return 0, fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
					}
					ft = nil
				case TagNull:
					if !f.Optional {
						return 0, fmt.Errorf("adm: null value for non-optional field %q of type %s", f.Name, r.Name())
					}
					ft = nil
				}
			}
		}
		used, err := validateEncoded(ft, buf[pos:])
		if err != nil {
			if ft == nil || errors.Is(err, errValidateFallback) {
				return 0, err
			}
			return 0, fmt.Errorf("adm: field %q: %w", f.Name, err)
		}
		pos += used
	}
	if nUndeclared > 1 {
		if err := r.undeclaredDuplicate(buf); err != nil {
			return 0, err
		}
	}
	if r != nil {
		for i, f := range r.fields {
			if !seen[i] && !f.Optional {
				return 0, fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
			}
		}
	}
	return pos, nil
}

// undeclaredDuplicate reports a field name that occurs twice among the
// fields of the well-formed encoded record buf that r (nil: any record)
// does not declare. At most validateEncodedMaxFields names are compared.
func (r *RecordType) undeclaredDuplicate(buf []byte) error {
	var names [validateEncodedMaxFields][]byte
	i, n := 0, 0
	var dup []byte
	_, err := ScanRecordFields(buf, func(name, _ []byte) bool {
		i++
		if r != nil && r.fieldIndex(i-1, name) >= 0 {
			return true
		}
		for _, prev := range names[:n] {
			if string(prev) == string(name) {
				dup = name
				return false
			}
		}
		names[n] = name
		n++
		return true
	})
	if err != nil {
		return err
	}
	if dup != nil {
		return fmt.Errorf("adm: duplicate field %q in record", dup)
	}
	return nil
}

// fieldIndex returns the index of the declared field called name, or -1.
// Records usually carry their fields in declaration order, so the field
// at the record's position i is tried before the map.
func (r *RecordType) fieldIndex(i int, name []byte) int {
	if i < len(r.fields) && r.fields[i].Name == string(name) {
		return i
	}
	if idx, ok := r.index[string(name)]; ok {
		return idx
	}
	return -1
}
