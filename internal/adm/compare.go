package adm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Compare totally orders two ADM values. Values of different type tags order
// by tag (missing < null < boolean < int64/double < string < ...), except
// that int64 and double compare numerically against each other. Within a
// tag, natural ordering applies; records compare field-wise over the union
// of sorted field names, with absent fields ordering first.
func Compare(a, b Value) int {
	at, bt := a.Tag(), b.Tag()
	// Numeric cross-type comparison.
	if isNumeric(at) && isNumeric(bt) {
		af, _ := AsDouble(a)
		bf, _ := AsDouble(b)
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		// Equal numerically: break ties by tag so ordering stays total
		// and consistent with equality (int64 1 != double 1.0 as values,
		// but they compare equal for indexing purposes).
		return 0
	}
	if at != bt {
		if at < bt {
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case Missing, Null:
		return 0
	case Boolean:
		bv := b.(Boolean)
		switch {
		case !bool(av) && bool(bv):
			return -1
		case bool(av) && !bool(bv):
			return 1
		}
		return 0
	case String:
		bv := b.(String)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case Datetime:
		bv := b.(Datetime)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case Point:
		bv := b.(Point)
		if c := cmpFloat(av.X, bv.X); c != 0 {
			return c
		}
		return cmpFloat(av.Y, bv.Y)
	case Rectangle:
		bv := b.(Rectangle)
		if c := Compare(av.Low, bv.Low); c != 0 {
			return c
		}
		return Compare(av.High, bv.High)
	case *OrderedList:
		bv := b.(*OrderedList)
		return compareLists(av.Items, bv.Items)
	case *UnorderedList:
		bv := b.(*UnorderedList)
		return compareLists(sortedItems(av.Items), sortedItems(bv.Items))
	case *Record:
		bv := b.(*Record)
		return compareRecords(av, bv)
	}
	return 0
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func isNumeric(t TypeTag) bool { return t == TagInt64 || t == TagDouble }

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareLists(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func sortedItems(items []Value) []Value {
	out := append([]Value(nil), items...)
	sort.SliceStable(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

func compareRecords(a, b *Record) int {
	names := map[string]bool{}
	for _, n := range a.names {
		names[n] = true
	}
	for _, n := range b.names {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		av, aok := a.Field(n)
		bv, bok := b.Field(n)
		switch {
		case !aok && bok:
			return -1
		case aok && !bok:
			return 1
		case !aok && !bok:
			continue
		}
		if c := Compare(av, bv); c != 0 {
			return c
		}
	}
	return 0
}

// Hash computes a 64-bit hash of the value, consistent with Equal: equal
// values hash identically. Int64 and double values that are numerically
// equal hash identically too.
func Hash(v Value) uint64 {
	h := fnvOffset64
	h.value(v)
	return uint64(h)
}

// fnv64a is a 64-bit FNV-1a hash state. Hash and HashEncoded feed it the
// same byte stream for a value and its encoding; it never allocates.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
	// numericHashTag prefixes int64 and double alike, so that Int64(1) and
	// Double(1) hash the same, matching Compare.
	numericHashTag = 0xFE
)

func (h *fnv64a) writeByte(b byte) { *h = (*h ^ fnv64a(b)) * fnvPrime64 }

func (h *fnv64a) write(p []byte) {
	for _, b := range p {
		h.writeByte(b)
	}
}

func (h *fnv64a) writeString(s string) {
	for i := 0; i < len(s); i++ {
		h.writeByte(s[i])
	}
}

// write64 writes u as 8 little-endian bytes.
func (h *fnv64a) write64(u uint64) {
	for i := 0; i < 8; i++ {
		h.writeByte(byte(u >> (8 * i)))
	}
}

func (h *fnv64a) writeFloat(f float64) { h.write64(math.Float64bits(canonicalFloat(f))) }

func (h *fnv64a) writeBool(b bool) {
	h.writeByte(byte(TagBoolean))
	if b {
		h.writeByte(1)
	} else {
		h.writeByte(0)
	}
}

func (h *fnv64a) value(v Value) {
	switch t := v.(type) {
	case Missing:
		h.writeByte(byte(TagMissing))
	case Null:
		h.writeByte(byte(TagNull))
	case Boolean:
		h.writeBool(bool(t))
	case Int64:
		h.writeByte(numericHashTag)
		h.writeFloat(float64(t))
	case Double:
		h.writeByte(numericHashTag)
		h.writeFloat(float64(t))
	case String:
		h.writeByte(byte(TagString))
		h.writeString(string(t))
	case Datetime:
		h.writeByte(byte(TagDatetime))
		h.write64(uint64(t))
	case Point:
		h.writeByte(byte(TagPoint))
		h.writeFloat(t.X)
		h.writeFloat(t.Y)
	case Rectangle:
		h.writeByte(byte(TagRectangle))
		h.value(t.Low)
		h.value(t.High)
	case *OrderedList:
		h.writeByte(byte(TagOrderedList))
		for _, it := range t.Items {
			h.value(it)
		}
	case *UnorderedList:
		h.writeByte(byte(TagUnorderedList))
		for _, it := range sortedItems(t.Items) {
			h.value(it)
		}
	case *Record:
		h.writeByte(byte(TagRecord))
		names := append([]string(nil), t.names...)
		sort.Strings(names)
		for _, n := range names {
			h.writeString(n)
			h.writeByte(0)
			fv, _ := t.Field(n)
			h.value(fv)
		}
	}
}

// HashEncoded returns Hash of the value encoded at the front of enc,
// reading scalars and ordered lists straight from the bytes. Records and
// unordered lists hash independently of their field or item order, so
// those are decoded. Bytes after the value are ignored; a malformed value
// is an error.
func HashEncoded(enc []byte) (uint64, error) {
	h := fnvOffset64
	if _, err := h.encoded(enc); err != nil {
		return 0, err
	}
	return uint64(h), nil
}

// encoded folds the value at the front of buf into h exactly as value
// folds its decoded form, and returns the value's encoded length.
func (h *fnv64a) encoded(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: hash of empty buffer")
	}
	tag := TypeTag(buf[0])
	pos := 1
	float := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
	}
	switch tag {
	case TagMissing, TagNull:
		h.writeByte(byte(tag))
		return pos, nil
	case TagBoolean:
		if len(buf) < pos+1 {
			return 0, errTruncated(tag)
		}
		h.writeBool(buf[pos] != 0)
		return pos + 1, nil
	case TagInt64:
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		h.writeByte(numericHashTag)
		h.writeFloat(float64(v))
		return pos + n, nil
	case TagDatetime:
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		h.writeByte(byte(TagDatetime))
		h.write64(uint64(v))
		return pos + n, nil
	case TagDouble:
		if len(buf) < pos+8 {
			return 0, errTruncated(tag)
		}
		h.writeByte(numericHashTag)
		h.writeFloat(float(pos))
		return pos + 8, nil
	case TagString:
		ln, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(tag)
		}
		h.writeByte(byte(TagString))
		h.write(buf[pos : pos+int(ln)])
		return pos + int(ln), nil
	case TagPoint:
		if len(buf) < pos+16 {
			return 0, errTruncated(tag)
		}
		h.writeByte(byte(TagPoint))
		h.writeFloat(float(pos))
		h.writeFloat(float(pos + 8))
		return pos + 16, nil
	case TagRectangle:
		if len(buf) < pos+32 {
			return 0, errTruncated(tag)
		}
		h.writeByte(byte(TagRectangle))
		for corner := pos; corner < pos+32; corner += 16 {
			h.writeByte(byte(TagPoint))
			h.writeFloat(float(corner))
			h.writeFloat(float(corner + 8))
		}
		return pos + 32, nil
	case TagOrderedList:
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if cnt > uint64(len(buf)-pos) {
			return 0, errTruncated(tag)
		}
		h.writeByte(byte(TagOrderedList))
		for i := uint64(0); i < cnt; i++ {
			used, err := h.encoded(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += used
		}
		return pos, nil
	case TagUnorderedList, TagRecord:
		v, n, err := Decode(buf)
		if err != nil {
			return 0, err
		}
		h.value(v)
		return n, nil
	}
	return 0, fmt.Errorf("adm: unknown tag 0x%02x", buf[0])
}

// canonicalFloat maps -0 to +0 so that equal floats hash identically.
func canonicalFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}
