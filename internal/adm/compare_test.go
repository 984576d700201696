package adm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompareScalars(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int64(1), Int64(2), -1},
		{Int64(2), Int64(2), 0},
		{Int64(3), Int64(2), 1},
		{Int64(1), Double(1.5), -1},
		{Double(1.0), Int64(1), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Boolean(false), Boolean(true), -1},
		{Datetime(10), Datetime(20), -1},
		{Null{}, Null{}, 0},
		{Missing{}, Null{}, -1},
		{Null{}, Int64(0), -1},
		{Point{0, 0}, Point{0, 1}, -1},
		{Point{1, 0}, Point{0, 5}, 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareLists(t *testing.T) {
	a := &OrderedList{Items: []Value{Int64(1), Int64(2)}}
	b := &OrderedList{Items: []Value{Int64(1), Int64(3)}}
	c := &OrderedList{Items: []Value{Int64(1)}}
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(c, a) != -1 {
		t.Fatal("ordered list comparison incorrect")
	}
}

func TestCompareUnorderedListsIgnoresOrder(t *testing.T) {
	a := &UnorderedList{Items: []Value{Int64(2), Int64(1)}}
	b := &UnorderedList{Items: []Value{Int64(1), Int64(2)}}
	if !Equal(a, b) {
		t.Fatal("bags with same elements in different order not equal")
	}
}

func TestCompareRecordsFieldOrderIrrelevant(t *testing.T) {
	a := MustRecord([]string{"x", "y"}, []Value{Int64(1), Int64(2)})
	b := MustRecord([]string{"y", "x"}, []Value{Int64(2), Int64(1)})
	if !Equal(a, b) {
		t.Fatal("records with same fields in different order not equal")
	}
}

func TestCompareRecordsAbsentFieldOrdersFirst(t *testing.T) {
	a := MustRecord([]string{"x"}, []Value{Int64(1)})
	b := MustRecord([]string{"x", "y"}, []Value{Int64(1), Int64(2)})
	if Compare(a, b) != -1 {
		t.Fatalf("Compare(shorter, longer) = %d, want -1", Compare(a, b))
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int64(1), Double(1)},
		{MustRecord([]string{"a", "b"}, []Value{Int64(1), Int64(2)}),
			MustRecord([]string{"b", "a"}, []Value{Int64(2), Int64(1)})},
		{&UnorderedList{Items: []Value{String("x"), String("y")}},
			&UnorderedList{Items: []Value{String("y"), String("x")}}},
		{Double(0), Double(negZero())},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %s == %s", p[0], p[1])
		}
		if Hash(p[0]) != Hash(p[1]) {
			t.Errorf("equal values hash differently: %s vs %s", p[0], p[1])
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

func TestHashDistinguishes(t *testing.T) {
	// Not a guarantee, but these should essentially never collide.
	if Hash(String("a")) == Hash(String("b")) {
		t.Error("trivial hash collision between distinct strings")
	}
	if Hash(Int64(1)) == Hash(Int64(2)) {
		t.Error("trivial hash collision between distinct ints")
	}
}

// TestHashPinned pins Hash outputs: partition placement of stored records
// is derived from them, so any change would strand data on restart.
func TestHashPinned(t *testing.T) {
	cases := []struct {
		v    Value
		want uint64
	}{
		{Missing{}, 0xaf63bd4c8601b7df},
		{Null{}, 0xaf63bc4c8601b62c},
		{Boolean(true), 0x08395307b4f1348c},
		{Boolean(false), 0x08395407b4f1363f},
		{Int64(-42), 0xb2cda4c1ca0a8dbc},
		{Int64(1<<53 + 1), 0xb2c36fc1ca01df28},
		{Double(3.5), 0xb38f5ac1caaf21dd},
		{Double(negZero()), 0xb39d32c1cabb1b41},
		{String(""), 0xaf63b84c8601af60},
		{String("s1-p0-0000000001"), 0x9b093f113e41c291},
		{Datetime(1420070400000), 0x8ad950526b1fdad8},
		{Point{X: 1, Y: -2}, 0xf3d614cfe8e256d7},
		{Rectangle{Low: Point{X: 0, Y: 0}, High: Point{X: 10, Y: 10}}, 0xaa56495810202ad5},
		{&OrderedList{Items: []Value{Int64(1), String("a"), Null{}}}, 0x8b6a25dfdddc5824},
		{&UnorderedList{Items: []Value{String("b"), Int64(2)}}, 0xacc27ad6ca72c0c2},
		{MustRecord([]string{"z", "a"}, []Value{Int64(1), &OrderedList{Items: []Value{Double(2)}}}), 0x9dbd8b1517b46821},
	}
	for _, c := range cases {
		if got := Hash(c.v); got != c.want {
			t.Errorf("Hash(%s) = %#016x, want %#016x", c.v, got, c.want)
		}
		got, err := HashEncoded(Encode(c.v))
		if err != nil || got != c.want {
			t.Errorf("HashEncoded(%s) = %#016x, %v; want %#016x", c.v, got, err, c.want)
		}
	}
}

func TestPropertyHashEncodedMatchesHash(t *testing.T) {
	f := func(seed int64) bool {
		v := randomValue(rand.New(rand.NewSource(seed)), 3)
		got, err := HashEncoded(Encode(v))
		return err == nil && got == Hash(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHashEncodedRejectsMalformed(t *testing.T) {
	enc := Encode(&OrderedList{Items: []Value{String("abc"), Int64(1 << 40), Point{X: 1, Y: 2}}})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := HashEncoded(enc[:cut]); err == nil {
			t.Errorf("HashEncoded accepted %d-byte truncation of a %d-byte value", cut, len(enc))
		}
	}
	if _, err := HashEncoded([]byte{0xEE}); err == nil {
		t.Error("HashEncoded accepted an unknown tag")
	}
}

func TestHashAllocs(t *testing.T) {
	str, num := Encode(String("s1-p0-0000000001")), Encode(Int64(-7))
	allocs := testing.AllocsPerRun(100, func() {
		_ = Hash(String("s1-p0-0000000001"))
		_ = Hash(Point{X: 1, Y: 2})
		if _, err := HashEncoded(str); err != nil {
			t.Fatal(err)
		}
		if _, err := HashEncoded(num); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("scalar hashing allocates %.1f times per run, want 0", allocs)
	}
}

func TestPropertyCompareReflexiveAndAntisymmetric(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomValue(rand.New(rand.NewSource(seedA)), 2)
		b := randomValue(rand.New(rand.NewSource(seedB)), 2)
		if Compare(a, a) != 0 || Compare(b, b) != 0 {
			return false
		}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEqualImpliesEqualHash(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 2)
		// Round-trip through the binary codec yields an equal value; the
		// hashes must agree.
		got, err := DecodeOne(Encode(v))
		if err != nil {
			return false
		}
		return Hash(got) == Hash(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareTransitiveOnInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Int64(a), Int64(b), Int64(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(Boolean(false)) || Truthy(Null{}) || Truthy(Missing{}) {
		t.Fatal("false/null/missing should not be truthy")
	}
	if !Truthy(Boolean(true)) || !Truthy(Int64(0)) || !Truthy(String("")) {
		t.Fatal("true and non-null values should be truthy")
	}
}

func TestRectangleContains(t *testing.T) {
	r := Rectangle{Point{0, 0}, Point{10, 10}}
	for _, p := range []Point{{0, 0}, {10, 10}, {5, 5}} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range []Point{{-1, 5}, {5, 11}, {11, 5}} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}
