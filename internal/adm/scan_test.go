package adm

import (
	"fmt"
	"testing"
)

func scanTestType(t *testing.T, open bool) *RecordType {
	t.Helper()
	user := MustRecordType("User", false, []Field{
		{Name: "name", Type: TString},
		{Name: "followers", Type: TInt64, Optional: true},
	})
	return MustRecordType("Tweet", open, []Field{
		{Name: "id", Type: TString},
		{Name: "score", Type: TDouble},
		{Name: "location", Type: TPoint, Optional: true},
		{Name: "tags", Type: &OrderedListType{Item: TString}, Optional: true},
		{Name: "user", Type: user, Optional: true},
		{Name: "friends", Type: &UnorderedListType{Item: user}, Optional: true},
	})
}

// encRecord hand-encodes a record from already-encoded field values, so a
// test can build what the builder refuses (duplicate field names).
func encRecord(names []string, vals [][]byte) []byte {
	buf := []byte{byte(TagRecord), byte(len(names))}
	for i, n := range names {
		buf = append(buf, byte(len(n)))
		buf = append(buf, n...)
		buf = append(buf, vals[i]...)
	}
	return buf
}

func scanTestRecord(t *testing.T) *Record {
	t.Helper()
	return (&RecordBuilder{}).
		Add("id", String("t1")).
		Add("score", Int64(7)). // int64→double promotion
		Add("location", Point{X: 1, Y: 2}).
		Add("tags", &OrderedList{Items: []Value{String("a"), String("b")}}).
		Add("extra", Boolean(true)).
		MustBuild()
}

func TestSkipValueMatchesDecode(t *testing.T) {
	values := []Value{
		Missing{}, Null{}, Boolean(true), Int64(-42), Double(3.5),
		String("hello"), Datetime(123456), Point{X: 1, Y: 2},
		Rectangle{Low: Point{0, 0}, High: Point{4, 4}},
		&OrderedList{Items: []Value{Int64(1), String("x")}},
		&UnorderedList{Items: []Value{Double(2.5)}},
		scanTestRecord(t),
	}
	for _, v := range values {
		enc := Encode(v)
		// Append trailing garbage: SkipValue must report the exact length.
		buf := append(append([]byte(nil), enc...), 0xFF, 0xFF)
		n, err := SkipValue(buf)
		if err != nil {
			t.Fatalf("SkipValue(%s): %v", v.Tag(), err)
		}
		if n != len(enc) {
			t.Fatalf("SkipValue(%s) = %d, want %d", v.Tag(), n, len(enc))
		}
		// Every truncation must be detected, never over-read.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := SkipValue(enc[:cut]); err == nil && cut < len(enc) {
				if m, _ := SkipValue(enc[:cut]); m > cut {
					t.Fatalf("SkipValue(%s) over-read truncated buffer", v.Tag())
				}
			}
		}
	}
}

func TestScanRecordFields(t *testing.T) {
	rec := scanTestRecord(t)
	enc := Encode(rec)
	var names []string
	n, err := ScanRecordFields(enc, func(name, encValue []byte) bool {
		names = append(names, string(name))
		// Each field's encoded slice must round-trip through Decode.
		v, used, err := Decode(encValue)
		if err != nil {
			t.Fatalf("field %q: %v", name, err)
		}
		if used != len(encValue) {
			t.Fatalf("field %q: %d trailing bytes", name, len(encValue)-used)
		}
		want, _ := rec.Field(string(name))
		if !Equal(v, want) {
			t.Fatalf("field %q decoded to %s, want %s", name, v, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d bytes, want %d", n, len(enc))
	}
	want := []string{"id", "score", "location", "tags", "extra"}
	if len(names) != len(want) {
		t.Fatalf("got fields %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got fields %v, want %v", names, want)
		}
	}
}

func TestScanRecordFieldsEarlyStop(t *testing.T) {
	enc := Encode(scanTestRecord(t))
	calls := 0
	if _, err := ScanRecordFields(enc, func(_, _ []byte) bool {
		calls++
		return calls < 2
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2", calls)
	}
}

// TestValidateEncodedMatchesValidate cross-checks the byte-level validator
// against DecodeOne+Validate over conforming and violating records.
func TestValidateEncodedMatchesValidate(t *testing.T) {
	mk := func(build func(b *RecordBuilder)) []byte {
		b := &RecordBuilder{}
		build(b)
		return Encode(b.MustBuild())
	}
	cases := []struct {
		name string
		enc  []byte
	}{
		{"conforming", Encode(scanTestRecord(t))},
		{"missing required", mk(func(b *RecordBuilder) { b.Add("id", String("x")) })},
		{"null required", mk(func(b *RecordBuilder) { b.Add("id", Null{}).Add("score", Double(1)) })},
		{"wrong field type", mk(func(b *RecordBuilder) { b.Add("id", Int64(9)).Add("score", Double(1)) })},
		{"optional absent", mk(func(b *RecordBuilder) { b.Add("id", String("x")).Add("score", Double(1)) })},
		{"optional null", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).Add("location", Null{})
		})},
		{"bad nested list item", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).
				Add("tags", &OrderedList{Items: []Value{Int64(3)}})
		})},
		{"undeclared field", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).Add("zzz", Boolean(false))
		})},
		{"not a record", Encode(String("just a string"))},
		{"two undeclared fields", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("zz1", Int64(1)).Add("score", Double(1)).Add("zz2", Int64(2))
		})},
		{"duplicate undeclared field", encRecord(
			[]string{"id", "zzz", "score", "zzz"},
			[][]byte{Encode(String("x")), Encode(Int64(1)), Encode(Double(1)), Encode(Int64(2))},
		)},
		{"duplicate declared field", encRecord(
			[]string{"id", "score", "id"},
			[][]byte{Encode(String("x")), Encode(Double(1)), Encode(String("y"))},
		)},
		{"nested conforming", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).
				Add("user", MustRecord([]string{"name", "followers"}, []Value{String("u"), Int64(3)})).
				Add("friends", &UnorderedList{Items: []Value{MustRecord([]string{"name"}, []Value{String("f")})}})
		})},
		{"nested missing required", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).
				Add("user", MustRecord([]string{"followers"}, []Value{Int64(3)}))
		})},
		{"nested undeclared in closed type", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).
				Add("user", MustRecord([]string{"name", "zzz"}, []Value{String("u"), Int64(3)}))
		})},
		{"nested duplicate field", encRecord(
			[]string{"id", "score", "user"},
			[][]byte{Encode(String("x")), Encode(Double(1)),
				encRecord([]string{"name", "name"}, [][]byte{Encode(String("u")), Encode(String("v"))})},
		)},
		{"duplicate field in undeclared record", encRecord(
			[]string{"id", "score", "zzz"},
			[][]byte{Encode(String("x")), Encode(Double(1)),
				encRecord([]string{"k", "k"}, [][]byte{Encode(Null{}), Encode(Null{})})},
		)},
		{"bad record list item", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).
				Add("friends", &UnorderedList{Items: []Value{
					MustRecord([]string{"name"}, []Value{String("f")}),
					MustRecord([]string{"name"}, []Value{Int64(4)}),
				}})
		})},
		{"null record list item", mk(func(b *RecordBuilder) {
			b.Add("id", String("x")).Add("score", Double(1)).
				Add("friends", &UnorderedList{Items: []Value{Null{}}})
		})},
	}
	for _, open := range []bool{true, false} {
		rt := scanTestType(t, open)
		for _, tc := range cases {
			wantErr := func() error {
				v, err := DecodeOne(tc.enc)
				if err != nil {
					return err
				}
				return rt.Validate(v)
			}()
			gotErr := rt.ValidateEncoded(tc.enc)
			if (wantErr == nil) != (gotErr == nil) {
				t.Errorf("open=%v %s: ValidateEncoded err=%v, Validate err=%v", open, tc.name, gotErr, wantErr)
			}
		}
		// Trailing bytes are rejected, as DecodeOne rejects them.
		enc := append(Encode(scanTestRecord(t)), 0x00)
		if rt.ValidateEncoded(enc) == nil {
			t.Errorf("open=%v: trailing bytes accepted", open)
		}
		// Truncated records are rejected.
		enc = Encode(scanTestRecord(t))
		if rt.ValidateEncoded(enc[:len(enc)-3]) == nil {
			t.Errorf("open=%v: truncated record accepted", open)
		}
	}
}

func TestValidateEncodedDuplicateField(t *testing.T) {
	// Hand-craft a record encoding with a duplicate field name, which the
	// builder would reject: record{ id:"a", id:"b" }.
	var buf []byte
	buf = append(buf, byte(TagRecord), 2)
	for _, v := range []string{"a", "b"} {
		buf = append(buf, 2)
		buf = append(buf, "id"...)
		buf = AppendValue(buf, String(v))
	}
	rt := scanTestType(t, true)
	if err := rt.ValidateEncoded(buf); err == nil {
		t.Fatal("duplicate field accepted")
	}
	if _, err := DecodeOne(buf); err == nil {
		t.Fatal("decode path accepted duplicate field (parity lost)")
	}
}

func TestValidateEncodedAllocs(t *testing.T) {
	rt := scanTestType(t, true)
	flat := Encode((&RecordBuilder{}).
		Add("id", String("t1")).
		Add("score", Double(2)).
		Add("location", Point{X: 3, Y: 4}).
		Add("extra1", Boolean(true)).
		Add("extra2", Int64(5)).
		MustBuild())
	tweet := tweetType(t)
	nested := Encode(sampleTweet())
	allocs := testing.AllocsPerRun(100, func() {
		if err := rt.ValidateEncoded(flat); err != nil {
			t.Fatal(err)
		}
		if err := tweet.ValidateEncoded(nested); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("ValidateEncoded allocates %.1f times per run, want 0", allocs)
	}
}

// TestValidateEncodedWideRecordFallsBack: a nested record wider than the
// fixed-size tracking still gets the decode path's verdict.
func TestValidateEncodedWideRecordFallsBack(t *testing.T) {
	rt := scanTestType(t, true)
	wide := &RecordBuilder{}
	for i := 0; i < validateEncodedMaxFields+1; i++ {
		wide.Add(fmt.Sprintf("f%d", i), Int64(int64(i)))
	}
	base := func() *RecordBuilder {
		return (&RecordBuilder{}).Add("id", String("x")).Add("score", Double(1))
	}
	if err := rt.ValidateEncoded(Encode(base().Add("extra", wide.MustBuild()).MustBuild())); err != nil {
		t.Fatalf("wide undeclared record rejected: %v", err)
	}
	if err := rt.ValidateEncoded(Encode(base().Add("user", wide.MustBuild()).MustBuild())); err == nil {
		t.Fatal("wide record accepted for closed nested type User")
	}
}

func BenchmarkValidateEncoded(b *testing.B) {
	flatType := MustRecordType("Tweet", true, []Field{
		{Name: "id", Type: TString},
		{Name: "score", Type: TDouble},
		{Name: "location", Type: TPoint, Optional: true},
	})
	flat := Encode((&RecordBuilder{}).
		Add("id", String("t1")).
		Add("score", Double(2)).
		Add("location", Point{X: 3, Y: 4}).
		MustBuild())
	// The TweetGen shape: a Tweet with a nested TwitterUser record.
	nestedType := tweetType(b)
	nested := Encode(sampleTweet())
	for _, c := range []struct {
		name string
		rt   *RecordType
		enc  []byte
	}{
		{"flat", flatType, flat},
		{"nested", nestedType, nested},
	} {
		b.Run(c.name+"/byte-level", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.rt.ValidateEncoded(c.enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := DecodeOne(c.enc)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.rt.Validate(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
