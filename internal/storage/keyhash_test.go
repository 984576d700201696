package storage_test

import (
	"fmt"
	"math/rand"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

// keyHashDataset returns an open dataset keyed on key over n nodes.
func keyHashDataset(n int, key ...string) *storage.Dataset {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("N%d", i)
	}
	return &storage.Dataset{
		Dataverse:  "feeds",
		Name:       "Keyed",
		Type:       adm.MustRecordType("Keyed", true, nil),
		PrimaryKey: key,
		NodeGroup:  nodes,
	}
}

// compositeKeyRecords returns records keyed on (name string, n int64) with
// the key fields after non-key fields, in both orders, and n negative,
// small and beyond 2^53 (where float64 conversion rounds). One record
// carries n as a double equal to an int64 key, which must hash alike.
func compositeKeyRecords(r *rand.Rand) []*adm.Record {
	ns := []int64{0, -1, 7, -(1 << 40), 1<<53 + 1, -(1<<53 + 3), 1<<62 + 5, -1 << 63}
	for i := 0; i < 40; i++ {
		ns = append(ns, r.Int63()-r.Int63())
	}
	var recs []*adm.Record
	for i, n := range ns {
		name := adm.String(fmt.Sprintf("user-%d", i%5))
		payload := adm.MustRecord([]string{"text", "tags"}, []adm.Value{
			adm.String("payload"), &adm.OrderedList{Items: []adm.Value{adm.Int64(int64(i))}},
		})
		recs = append(recs,
			adm.MustRecord([]string{"payload", "score", "name", "n"},
				[]adm.Value{payload, adm.Double(float64(i) / 3), name, adm.Int64(n)}),
			adm.MustRecord([]string{"payload", "n", "flag", "name"},
				[]adm.Value{payload, adm.Int64(n), adm.Boolean(i%2 == 0), name}),
		)
	}
	recs = append(recs, adm.MustRecord([]string{"n", "name"}, []adm.Value{adm.Double(-42), adm.String("user-0")}))
	return recs
}

// TestKeyHashFuncMatchesPartitionOf: the connector's byte-level hash must
// route every record to the partition PartitionOf places it in, or
// lookups miss what the feed stored.
func TestKeyHashFuncMatchesPartitionOf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gen := tweetgen.NewGenerator(3, 0)
	var tweets []*adm.Record
	for i := 0; i < 200; i++ {
		tweets = append(tweets, gen.Next())
	}
	composite := compositeKeyRecords(r)
	for _, nodes := range []int{2, 3, 7} {
		for _, c := range []struct {
			name string
			ds   *storage.Dataset
			recs []*adm.Record
		}{
			{"tweetgen", keyHashDataset(nodes, "id"), tweets},
			{"composite", keyHashDataset(nodes, "name", "n"), composite},
			{"composite-reversed", keyHashDataset(nodes, "n", "name"), composite},
		} {
			hash := c.ds.KeyHashFunc()
			for _, rec := range c.recs {
				want, err := c.ds.PartitionOf(rec)
				if err != nil {
					t.Fatalf("%s/%d: PartitionOf(%s): %v", c.name, nodes, rec, err)
				}
				if got := int(hash(adm.Encode(rec)) % uint64(nodes)); got != want {
					t.Fatalf("%s/%d: %s routed to partition %d, PartitionOf says %d", c.name, nodes, rec, got, want)
				}
			}
		}
	}
	// A record lacking a key field has no partition; it hashes to 0.
	ds := keyHashDataset(3, "name", "n")
	rec := adm.MustRecord([]string{"name"}, []adm.Value{adm.String("x")})
	if _, err := ds.PartitionOf(rec); err == nil {
		t.Fatal("PartitionOf placed a record lacking a key field")
	}
	if h := ds.KeyHashFunc()(adm.Encode(rec)); h != 0 {
		t.Fatalf("record lacking a key field hashed to %#x, want 0", h)
	}
}

// TestKeyHashFuncMalformedHashesToZero: truncated records, random bytes and
// non-record values hash to 0 without panicking.
func TestKeyHashFuncMalformedHashesToZero(t *testing.T) {
	hash := keyHashDataset(2, "id").KeyHashFunc()
	enc := adm.Encode(tweetgen.NewGenerator(1, 0).Next())
	for cut := 0; cut < len(enc); cut++ {
		if h := hash(enc[:cut]); h != 0 {
			t.Fatalf("record truncated to %d of %d bytes hashed to %#x, want 0", cut, len(enc), h)
		}
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, r.Intn(64))
		r.Read(buf)
		if h := hash(buf); h != 0 {
			t.Fatalf("garbage %x hashed to %#x, want 0", buf, h)
		}
	}
	if h := hash(adm.Encode(adm.String("id"))); h != 0 {
		t.Fatalf("non-record value hashed to %#x, want 0", h)
	}
}

func TestKeyHashFuncAllocs(t *testing.T) {
	hash := keyHashDataset(2, "id").KeyHashFunc()
	enc := adm.Encode(tweetgen.NewGenerator(1, 0).Next())
	if allocs := testing.AllocsPerRun(100, func() { hash(enc) }); allocs > 0 {
		t.Fatalf("KeyHashFunc allocates %.1f times per record, want 0", allocs)
	}
}

// BenchmarkKeyHashFunc routes TweetGen records over a 2-node nodegroup:
// "bytes" is the connector's KeyHashFunc, "decode" the decode-then-
// PartitionOf path it replaces.
func BenchmarkKeyHashFunc(b *testing.B) {
	ds := keyHashDataset(2, "id")
	gen := tweetgen.NewGenerator(1, 0)
	recs := make([][]byte, 128)
	for i := range recs {
		recs[i] = adm.Encode(gen.Next())
	}
	b.Run("bytes", func(b *testing.B) {
		hash := ds.KeyHashFunc()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keyHashSink += hash(recs[i%len(recs)])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := adm.DecodeOne(recs[i%len(recs)])
			if err != nil {
				b.Fatal(err)
			}
			p, err := ds.PartitionOf(v.(*adm.Record))
			if err != nil {
				b.Fatal(err)
			}
			keyHashSink += uint64(p)
		}
	})
}

// keyHashSink keeps the benchmarked calls from being optimized away.
var keyHashSink uint64
