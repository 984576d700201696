package adm

import (
	"math"
	"strings"
	"testing"
)

// fuzzSeeds returns encoded values covering every type tag plus nesting, used
// to seed both fuzz targets. The checked-in corpus under testdata/fuzz/
// extends these with hand-mangled encodings (truncations, bad varints,
// unknown tags, oversized counts).
func fuzzSeeds() [][]byte {
	vals := []Value{
		Missing{},
		Null{},
		Boolean(true),
		Int64(-42),
		Int64(1 << 40),
		Double(3.14),
		String(""),
		String("tweet"),
		Datetime(1420070400000),
		Point{X: 1, Y: -2},
		Rectangle{Low: Point{X: 0, Y: 0}, High: Point{X: 10, Y: 10}},
		&OrderedList{Items: []Value{Int64(1), String("a"), Null{}}},
		&UnorderedList{Items: []Value{Boolean(false)}},
		MustRecord(nil, nil),
		MustRecord(
			[]string{"id", "country", "pos", "tags"},
			[]Value{
				String("s1-p0-0000000001"),
				String("US"),
				Point{X: -122.4, Y: 37.8},
				&OrderedList{Items: []Value{String("a"), String("b")}},
			},
		),
		MustRecord(
			[]string{"outer"},
			[]Value{MustRecord([]string{"inner"}, []Value{Int64(7)})},
		),
	}
	seeds := make([][]byte, 0, len(vals))
	for _, v := range vals {
		seeds = append(seeds, Encode(v))
	}
	return seeds
}

// FuzzSkipValue: on arbitrary bytes SkipValue must never panic or over-read,
// and must agree with the decoding path on structure: anything Decode accepts
// SkipValue must also accept with the same length, and anything SkipValue
// accepts Decode must consume identically unless it hits a semantic rule the
// structural skip deliberately ignores (duplicate record field names). The
// storage fast path trusts SkipValue's verdict to admit raw frames without
// decoding, so any divergence here is an ingestion-correctness bug, not just
// a crash.
func FuzzSkipValue(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		n, err := SkipValue(buf)
		v, dn, derr := Decode(buf)
		if err != nil {
			if derr == nil {
				t.Fatalf("SkipValue rejected (%v) what Decode accepted (%v, %d bytes)", err, v, dn)
			}
			return
		}
		if n <= 0 || n > len(buf) {
			t.Fatalf("SkipValue consumed %d of %d bytes", n, len(buf))
		}
		if derr != nil {
			if !strings.Contains(derr.Error(), "duplicate field") {
				t.Fatalf("SkipValue accepted %d bytes that Decode rejects: %v", n, derr)
			}
		} else if n != dn {
			t.Fatalf("SkipValue consumed %d bytes, Decode consumed %d", n, dn)
		}
		// Skipping the exact value (no trailing bytes) must be stable.
		if m, err := SkipValue(buf[:n]); err != nil || m != n {
			t.Fatalf("re-skip of exact value: %d, %v (want %d, nil)", m, err, n)
		}
		// A decoded value re-encodes to something SkipValue accepts in full.
		// (Byte equality is too strong: the varint format admits non-canonical
		// encodings that decode fine but re-encode shorter.)
		if derr == nil {
			enc := Encode(v)
			if m, err := SkipValue(enc); err != nil || m != len(enc) {
				t.Fatalf("re-encode of %v not skippable: %d, %v", v, m, err)
			}
		}
	})
}

// FuzzScanRecordFields: the field walk must never panic, must hand out only
// in-bounds sub-slices whose encValue is itself well-formed, and on success
// must consume exactly what SkipValue would.
func FuzzScanRecordFields(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		fields := 0
		n, err := ScanRecordFields(buf, func(name, encValue []byte) bool {
			fields++
			if m, err := SkipValue(encValue); err != nil || m != len(encValue) {
				t.Fatalf("field %q: handed malformed encValue (%d of %d bytes, %v)",
					name, m, len(encValue), err)
			}
			return true
		})
		if err != nil {
			return
		}
		if n <= 0 || n > len(buf) {
			t.Fatalf("ScanRecordFields consumed %d of %d bytes", n, len(buf))
		}
		sn, serr := SkipValue(buf)
		if serr != nil || sn != n {
			t.Fatalf("full walk consumed %d bytes but SkipValue says %d, %v", n, sn, serr)
		}
		// Early termination must stop after the first field without error.
		if fields > 1 {
			stopped := 0
			pn, err := ScanRecordFields(buf, func(name, encValue []byte) bool {
				stopped++
				return false
			})
			if err != nil || stopped != 1 || pn <= 0 || pn > n {
				t.Fatalf("early stop: visited %d fields, consumed %d, %v", stopped, pn, err)
			}
		}
	})
}

// FuzzHashEncoded: the byte-level hash must never panic, and wherever
// DecodeOne accepts the input it must equal Hash of the decoded value. The
// connector routes records with HashEncoded while PartitionOf places them
// with Hash, so a divergence sends a record to a partition that never
// finds it again.
func FuzzHashEncoded(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	for _, v := range []Value{
		Int64(1<<53 + 1),
		Int64(-(1<<62 + 3)),
		Double(negZero()),
		Double(math.NaN()),
		MustRecord([]string{"id", "n"}, []Value{String("a"), Int64(1)}),
		MustRecord([]string{"n", "id"}, []Value{Int64(1), String("a")}),
	} {
		f.Add(Encode(v))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := HashEncoded(buf)
		v, derr := DecodeOne(buf)
		if derr != nil {
			return
		}
		if err != nil {
			t.Fatalf("HashEncoded rejected (%v) what DecodeOne accepted: %s", err, v)
		}
		if want := Hash(v); got != want {
			t.Fatalf("HashEncoded = %#016x, Hash(%s) = %#016x", got, v, want)
		}
	})
}

// fuzzValidateTypes returns an open and a closed record type with a nested
// record, an ordered list of records and an unordered list.
func fuzzValidateTypes() []*RecordType {
	inner := MustRecordType("Inner", false, []Field{
		{Name: "n", Type: TInt64},
		{Name: "s", Type: TString, Optional: true},
	})
	var types []*RecordType
	for _, open := range []bool{true, false} {
		types = append(types, MustRecordType("Outer", open, []Field{
			{Name: "id", Type: TString},
			{Name: "inner", Type: inner},
			{Name: "items", Type: &OrderedListType{Item: inner}, Optional: true},
			{Name: "tags", Type: &UnorderedListType{Item: TString}, Optional: true},
			{Name: "score", Type: TDouble, Optional: true},
		}))
	}
	return types
}

// FuzzValidateEncoded: the byte-level validator must reach the verdict of
// DecodeOne followed by Validate on every input: both reject or neither
// does. The store admits records on ValidateEncoded's word alone.
func FuzzValidateEncoded(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	inner := func(n int64) *Record { return MustRecord([]string{"n"}, []Value{Int64(n)}) }
	for _, v := range []Value{
		MustRecord([]string{"id", "inner"}, []Value{String("a"), inner(1)}),
		MustRecord(
			[]string{"id", "inner", "items", "tags", "score", "extra"},
			[]Value{String("a"), inner(1), &OrderedList{Items: []Value{inner(2), inner(3)}},
				&UnorderedList{Items: []Value{String("x")}}, Int64(4), MustRecord([]string{"k"}, []Value{Null{}})},
		),
		MustRecord([]string{"id", "inner"}, []Value{String("a"), MustRecord([]string{"s"}, []Value{String("no n")})}),
		MustRecord([]string{"id", "inner", "items"}, []Value{String("a"), inner(1), &OrderedList{Items: []Value{String("x")}}}),
	} {
		f.Add(Encode(v))
	}
	types := fuzzValidateTypes()
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, rt := range types {
			wantErr := func() error {
				v, err := DecodeOne(buf)
				if err != nil {
					return err
				}
				return rt.Validate(v)
			}()
			gotErr := rt.ValidateEncoded(buf)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("open=%v: ValidateEncoded err=%v, DecodeOne+Validate err=%v", rt.Open(), gotErr, wantErr)
			}
		}
	})
}
