package adm

import (
	"strings"
	"testing"
)

func tweetType(t testing.TB) *RecordType {
	t.Helper()
	user := MustRecordType("TwitterUser", true, []Field{
		{Name: "screen_name", Type: TString},
		{Name: "lang", Type: TString},
		{Name: "friends_count", Type: TInt64},
		{Name: "statuses_count", Type: TInt64},
		{Name: "name", Type: TString},
		{Name: "followers_count", Type: TInt64},
	})
	return MustRecordType("Tweet", true, []Field{
		{Name: "id", Type: TString},
		{Name: "user", Type: user},
		{Name: "latitude", Type: TDouble, Optional: true},
		{Name: "longitude", Type: TDouble, Optional: true},
		{Name: "created_at", Type: TString},
		{Name: "message_text", Type: TString},
		{Name: "country", Type: TString, Optional: true},
	})
}

func sampleUser() *Record {
	return MustRecord(
		[]string{"screen_name", "lang", "friends_count", "statuses_count", "name", "followers_count"},
		[]Value{String("NathanGiesen@211"), String("en"), Int64(18), Int64(473), String("Nathan Giesen"), Int64(49416)},
	)
}

func sampleTweet() *Record {
	return MustRecord(
		[]string{"id", "user", "latitude", "longitude", "created_at", "message_text", "country"},
		[]Value{String("nc1:1"), sampleUser(), Double(47.44), Double(80.65),
			String("2008-04-26"), String("traveling like #crazy to #irvine"), String("US")},
	)
}

func TestRecordTypeValidateAccepts(t *testing.T) {
	tt := tweetType(t)
	if err := tt.Validate(sampleTweet()); err != nil {
		t.Fatalf("Validate(sample tweet) = %v, want nil", err)
	}
}

func TestRecordTypeValidateOptionalFieldMayBeAbsent(t *testing.T) {
	tt := tweetType(t)
	rec := sampleTweet().WithoutField("latitude").WithoutField("country")
	if err := tt.Validate(rec); err != nil {
		t.Fatalf("Validate without optional fields = %v, want nil", err)
	}
}

func TestRecordTypeValidateRejectsMissingRequired(t *testing.T) {
	tt := tweetType(t)
	rec := sampleTweet().WithoutField("id")
	if err := tt.Validate(rec); err == nil {
		t.Fatal("Validate without required field id succeeded, want error")
	}
}

func TestRecordTypeValidateRejectsWrongFieldType(t *testing.T) {
	tt := tweetType(t)
	rec := sampleTweet().WithField("message_text", Int64(7))
	if err := tt.Validate(rec); err == nil {
		t.Fatal("Validate with int message_text succeeded, want error")
	}
}

func TestOpenTypeAllowsExtraFields(t *testing.T) {
	tt := tweetType(t)
	rec := sampleTweet().WithField("sentiment", Double(0.9))
	if err := tt.Validate(rec); err != nil {
		t.Fatalf("open type rejected extra field: %v", err)
	}
}

func TestClosedTypeRejectsExtraFields(t *testing.T) {
	ct := MustRecordType("C", false, []Field{{Name: "id", Type: TInt64}})
	rec := MustRecord([]string{"id", "extra"}, []Value{Int64(1), String("x")})
	if err := ct.Validate(rec); err == nil {
		t.Fatal("closed type accepted undeclared field, want error")
	}
}

func TestIntPromotesToDouble(t *testing.T) {
	tt := tweetType(t)
	rec := sampleTweet().WithField("latitude", Int64(47))
	if err := tt.Validate(rec); err != nil {
		t.Fatalf("int64 not accepted for double field: %v", err)
	}
}

func TestNullOnlyForOptionalFields(t *testing.T) {
	tt := tweetType(t)
	if err := tt.Validate(sampleTweet().WithField("country", Null{})); err != nil {
		t.Fatalf("null rejected for optional field: %v", err)
	}
	if err := tt.Validate(sampleTweet().WithField("id", Null{})); err == nil {
		t.Fatal("null accepted for required field, want error")
	}
}

func TestNewRecordTypeRejectsDuplicates(t *testing.T) {
	_, err := NewRecordType("D", true, []Field{
		{Name: "a", Type: TString},
		{Name: "a", Type: TInt64},
	})
	if err == nil {
		t.Fatal("duplicate field accepted, want error")
	}
}

func TestOrderedListTypeValidate(t *testing.T) {
	lt := &OrderedListType{Item: TString}
	good := &OrderedList{Items: []Value{String("a"), String("b")}}
	if err := lt.Validate(good); err != nil {
		t.Fatalf("Validate(good list) = %v", err)
	}
	bad := &OrderedList{Items: []Value{String("a"), Int64(1)}}
	if err := lt.Validate(bad); err == nil {
		t.Fatal("heterogeneous list accepted, want error")
	}
	if err := lt.Validate(String("not a list")); err == nil {
		t.Fatal("non-list accepted, want error")
	}
}

func TestUnorderedListTypeValidate(t *testing.T) {
	lt := &UnorderedListType{Item: TInt64}
	if err := lt.Validate(&UnorderedList{Items: []Value{Int64(1)}}); err != nil {
		t.Fatalf("Validate(good bag) = %v", err)
	}
	if err := lt.Validate(&UnorderedList{Items: []Value{String("x")}}); err == nil {
		t.Fatal("bad bag accepted, want error")
	}
}

func TestStructuralNames(t *testing.T) {
	rt := MustRecordType("", true, []Field{
		{Name: "id", Type: TString},
		{Name: "loc", Type: TPoint, Optional: true},
	})
	got := rt.Name()
	if !strings.Contains(got, "id:string") || !strings.Contains(got, "loc:point?") {
		t.Fatalf("structural name = %q, missing field descriptions", got)
	}
	if (&OrderedListType{Item: TString}).Name() != "[string]" {
		t.Fatalf("list name = %q", (&OrderedListType{Item: TString}).Name())
	}
	if (&UnorderedListType{Item: TDouble}).Name() != "{{double}}" {
		t.Fatalf("bag name = %q", (&UnorderedListType{Item: TDouble}).Name())
	}
}

func TestPrimitiveFor(t *testing.T) {
	for _, tag := range []TypeTag{TagBoolean, TagInt64, TagDouble, TagString, TagDatetime, TagPoint, TagRectangle, TagNull, TagMissing} {
		pt := PrimitiveFor(tag)
		if pt == nil {
			t.Fatalf("PrimitiveFor(%s) = nil", tag)
		}
		if pt.Tag() != tag {
			t.Fatalf("PrimitiveFor(%s).Tag() = %s", tag, pt.Tag())
		}
	}
	if PrimitiveFor(TagRecord) != nil {
		t.Fatal("PrimitiveFor(record) should be nil")
	}
}

func TestRecordFieldAccess(t *testing.T) {
	rec := sampleTweet()
	v, ok := rec.Field("id")
	if !ok || v.(String) != "nc1:1" {
		t.Fatalf("Field(id) = %v, %v", v, ok)
	}
	if _, ok := rec.Field("nonexistent"); ok {
		t.Fatal("Field(nonexistent) reported present")
	}
	if got := rec.FieldOr("nonexistent", String("dflt")); got.(String) != "dflt" {
		t.Fatalf("FieldOr default = %v", got)
	}
	if rec.NumFields() != 7 {
		t.Fatalf("NumFields = %d, want 7", rec.NumFields())
	}
	name, val := rec.FieldAt(0)
	if name != "id" || val.(String) != "nc1:1" {
		t.Fatalf("FieldAt(0) = %q, %v", name, val)
	}
}

func TestWithFieldDoesNotMutate(t *testing.T) {
	rec := sampleTweet()
	mod := rec.WithField("id", String("other"))
	if v, _ := rec.Field("id"); v.(String) != "nc1:1" {
		t.Fatal("WithField mutated the receiver")
	}
	if v, _ := mod.Field("id"); v.(String) != "other" {
		t.Fatal("WithField did not replace the value in the copy")
	}
}

func TestWithoutFieldAbsentIsNoop(t *testing.T) {
	rec := sampleTweet()
	if got := rec.WithoutField("zzz"); got != rec {
		t.Fatal("WithoutField on absent field should return receiver")
	}
}
