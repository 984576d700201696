package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

func encodeFrame(recs ...*adm.Record) [][]byte {
	out := make([][]byte, 0, len(recs))
	for _, r := range recs {
		out = append(out, adm.Encode(r))
	}
	return out
}

// TestInsertFrameMatchesInsert inserts the same records record-at-a-time
// into one partition and frame-at-a-time into another, then verifies both
// answer identically through every read path.
func TestInsertFrameMatchesInsert(t *testing.T) {
	recs := make([]*adm.Record, 0, 40)
	for i := 0; i < 40; i++ {
		var pt *adm.Point
		if i%3 != 0 { // leave some records without the optional indexed field
			pt = &adm.Point{X: float64(i % 7), Y: float64(i % 5)}
		}
		recs = append(recs, tweetRec(fmt.Sprintf("t%03d", i), fmt.Sprintf("user%d", i%4), pt))
	}

	recordWise := openTestPartition(t, testDataset())
	frameWise := openTestPartition(t, testDataset())
	for _, r := range recs {
		if err := recordWise.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := frameWise.InsertFrame(encodeFrame(recs...)); err != nil {
		t.Fatal(err)
	}

	for _, p := range []*Partition{recordWise, frameWise} {
		n, err := p.Count()
		if err != nil || n != len(recs) {
			t.Fatalf("Count = %d, %v; want %d", n, err, len(recs))
		}
	}
	for _, r := range recs {
		id, _ := r.Field("id")
		a, okA, _ := recordWise.Lookup([]adm.Value{id})
		b, okB, _ := frameWise.Lookup([]adm.Value{id})
		if okA != okB || !adm.Equal(a, b) {
			t.Fatalf("Lookup(%s) diverges: record-wise %v/%s, frame-wise %v/%s", id, okA, a, okB, b)
		}
	}
	for u := 0; u < 4; u++ {
		a, err := recordWise.SearchBTree("userIdx", adm.String(fmt.Sprintf("user%d", u)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := frameWise.SearchBTree("userIdx", adm.String(fmt.Sprintf("user%d", u)))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("SearchBTree(user%d) diverges: %d vs %d results", u, len(a), len(b))
		}
	}
	rect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 3, Y: 3}}
	a, err := recordWise.SearchRTree("locationIndex", rect)
	if err != nil {
		t.Fatal(err)
	}
	b, err := frameWise.SearchRTree("locationIndex", rect)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("SearchRTree diverges: %d vs %d results", len(a), len(b))
	}
}

// TestInsertFrameReplacesStored verifies a frame replacing previously stored
// records unhooks their old secondary index entries.
func TestInsertFrameReplacesStored(t *testing.T) {
	p := openTestPartition(t, testDataset())
	if err := p.InsertFrame(encodeFrame(tweetRec("t1", "alice", &adm.Point{X: 1, Y: 1}))); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertFrame(encodeFrame(tweetRec("t1", "bob", &adm.Point{X: 50, Y: 50}))); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Count(); n != 1 {
		t.Fatalf("Count = %d after in-place replace, want 1", n)
	}
	if got, _ := p.SearchBTree("userIdx", adm.String("alice")); len(got) != 0 {
		t.Fatalf("stale btree entry for replaced record: %d results", len(got))
	}
	if got, _ := p.SearchBTree("userIdx", adm.String("bob")); len(got) != 1 {
		t.Fatalf("SearchBTree(bob) = %d results, want 1", len(got))
	}
	oldRect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 2, Y: 2}}
	if got, _ := p.SearchRTree("locationIndex", oldRect); len(got) != 0 {
		t.Fatalf("stale rtree entry for replaced record: %d results", len(got))
	}
}

// TestInsertFrameInFrameDuplicate verifies that when one frame carries two
// records with the same primary key, the later record wins and the earlier
// one leaves no secondary index residue — exactly as two sequential Inserts.
func TestInsertFrameInFrameDuplicate(t *testing.T) {
	p := openTestPartition(t, testDataset())
	err := p.InsertFrame(encodeFrame(
		tweetRec("dup", "first", &adm.Point{X: 1, Y: 1}),
		tweetRec("other", "bystander", nil),
		tweetRec("dup", "second", &adm.Point{X: 60, Y: 60}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Count(); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	got, ok, err := p.Lookup([]adm.Value{adm.String("dup")})
	if err != nil || !ok {
		t.Fatalf("Lookup(dup) = %v, %v", ok, err)
	}
	if u, _ := got.Field("user_name"); !adm.Equal(u, adm.String("second")) {
		t.Fatalf("Lookup(dup).user_name = %s, want second (last writer)", u)
	}
	if res, _ := p.SearchBTree("userIdx", adm.String("first")); len(res) != 0 {
		t.Fatalf("stale btree entry from shadowed in-frame record: %d results", len(res))
	}
	if res, _ := p.SearchBTree("userIdx", adm.String("second")); len(res) != 1 {
		t.Fatalf("SearchBTree(second) = %d results, want 1", len(res))
	}
	rect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 2, Y: 2}}
	if res, _ := p.SearchRTree("locationIndex", rect); len(res) != 0 {
		t.Fatalf("stale rtree entry from shadowed in-frame record: %d results", len(res))
	}
}

// TestInsertFrameValidationAtomic verifies a frame containing any invalid
// record fails without mutating the partition: validation runs for the
// whole frame before the first tree write.
func TestInsertFrameValidationAtomic(t *testing.T) {
	p := openTestPartition(t, testDataset())
	if err := p.Insert(tweetRec("kept", "alice", nil)); err != nil {
		t.Fatal(err)
	}
	bad := (&adm.RecordBuilder{}).Add("id", adm.String("bad")).MustBuild() // missing required fields
	err := p.InsertFrame([][]byte{
		adm.Encode(tweetRec("g1", "bob", nil)),
		adm.Encode(bad),
		adm.Encode(tweetRec("g2", "carol", nil)),
	})
	if err == nil {
		t.Fatal("InsertFrame accepted a frame with an invalid record")
	}
	n, _ := p.Count()
	if n != 1 {
		t.Fatalf("Count = %d after rejected frame, want 1 (partition untouched)", n)
	}
	for _, id := range []string{"g1", "g2", "bad"} {
		if _, ok, _ := p.Lookup([]adm.Value{adm.String(id)}); ok {
			t.Fatalf("rejected frame leaked record %q into the partition", id)
		}
	}
	// A record with a missing primary key is also rejected frame-wide.
	noPK := (&adm.RecordBuilder{}).
		Add("user_name", adm.String("x")).
		Add("message_text", adm.String("y")).
		MustBuild()
	if err := p.InsertFrame([][]byte{adm.Encode(noPK)}); err == nil {
		t.Fatal("InsertFrame accepted a record lacking its primary key")
	}
}

// TestInsertFrameNamesEveryBadRecord: the data error of a rejected frame
// lists every failing record — first, middle and last, whatever the cause —
// with the same cause a one-record frame of it reports, and inserting the
// rest afterwards stores exactly the good records.
func TestInsertFrameNamesEveryBadRecord(t *testing.T) {
	p := openTestPartition(t, testDataset())
	good := tweetRec("g", "alice", nil)
	missing := (&adm.RecordBuilder{}).Add("id", adm.String("m")).MustBuild()
	noPK := (&adm.RecordBuilder{}).
		Add("user_name", adm.String("x")).
		Add("message_text", adm.String("y")).
		MustBuild()
	enc := adm.Encode(tweetRec("trunc", "u", nil))
	frame := [][]byte{
		adm.Encode(missing),
		adm.Encode(tweetRec("g0", "bob", nil)),
		{0xEE, 0x01},
		adm.Encode(tweetRec("g1", "carol", &adm.Point{X: 1, Y: 2})),
		adm.Encode(noPK),
		adm.Encode(good),
		enc[:len(enc)-2],
	}
	wantBad := []int{0, 2, 4, 6}

	err := p.InsertFrame(frame)
	var de *DataError
	if !errors.As(err, &de) {
		t.Fatalf("InsertFrame = %v, want a *DataError", err)
	}
	if len(de.Records) != len(wantBad) {
		t.Fatalf("DataError names %d records (%v), want %v", len(de.Records), de, wantBad)
	}
	for i, r := range de.Records {
		if r.Index != wantBad[i] {
			t.Fatalf("DataError record %d has index %d, want %d", i, r.Index, wantBad[i])
		}
		var alone *DataError
		if err := p.InsertFrame(frame[r.Index : r.Index+1]); !errors.As(err, &alone) || alone.Records[0].Err.Error() != r.Err.Error() {
			t.Fatalf("record %d: frame cause %q, alone %v", r.Index, r.Err, err)
		}
	}
	if n, _ := p.Count(); n != 0 {
		t.Fatalf("Count = %d after rejected frame, want 0 (partition untouched)", n)
	}

	var rest [][]byte
	for i, rec := range frame {
		if i%2 == 1 { // the good records sit between the bad ones
			rest = append(rest, rec)
		}
	}
	if err := p.InsertFrame(rest); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Count(); n != 3 {
		t.Fatalf("Count = %d, want the 3 good records", n)
	}
	if err := p.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertFrameGarbageRejected feeds structurally broken bytes.
func TestInsertFrameGarbageRejected(t *testing.T) {
	p := openTestPartition(t, testDataset())
	enc := adm.Encode(tweetRec("t1", "alice", nil))
	for _, recs := range [][][]byte{
		{{}},                // empty
		{{0xEE, 0x01}},      // unknown tag
		{enc[:len(enc)-2]},  // truncated
		{append(enc, 0x00)}, // trailing byte
		{adm.Encode(adm.String("not a record"))},
	} {
		if err := p.InsertFrame(recs); err == nil {
			t.Fatalf("InsertFrame accepted malformed input %x", recs[0])
		}
	}
	if n, _ := p.Count(); n != 0 {
		t.Fatalf("Count = %d after rejected frames, want 0", n)
	}
}

// TestInsertFrameConcurrent drives InsertFrame concurrently across several
// partitions — and concurrently with readers on each partition — to give the
// race detector a workout over the batched write path.
func TestInsertFrameConcurrent(t *testing.T) {
	const (
		parts        = 4
		writersPer   = 2
		framesEach   = 10
		recsPerFrame = 16
	)
	ps := make([]*Partition, parts)
	for i := range ps {
		ds := testDataset()
		m := NewManager(ds.NodeGroup[0], t.TempDir(), lsm.Options{})
		t.Cleanup(func() { m.Close() })
		p, err := m.OpenPartition(ds)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}

	var wg sync.WaitGroup
	errCh := make(chan error, parts*(writersPer+1))
	for pi, p := range ps {
		for w := 0; w < writersPer; w++ {
			wg.Add(1)
			go func(p *Partition, pi, w int) {
				defer wg.Done()
				for fi := 0; fi < framesEach; fi++ {
					recs := make([][]byte, 0, recsPerFrame)
					for ri := 0; ri < recsPerFrame; ri++ {
						// Overlapping ids across writers exercise the
						// replace path under contention.
						id := fmt.Sprintf("p%d-r%d", pi, (w*framesEach*recsPerFrame+fi*recsPerFrame+ri)%64)
						pt := &adm.Point{X: float64(ri), Y: float64(fi)}
						recs = append(recs, adm.Encode(tweetRec(id, fmt.Sprintf("u%d", ri%3), pt)))
					}
					if err := p.InsertFrame(recs); err != nil {
						errCh <- err
						return
					}
				}
			}(p, pi, w)
		}
		// One concurrent reader per partition.
		wg.Add(1)
		go func(p *Partition, pi int) {
			defer wg.Done()
			for i := 0; i < framesEach*2; i++ {
				if _, _, err := p.Lookup([]adm.Value{adm.String(fmt.Sprintf("p%d-r%d", pi, i%64))}); err != nil {
					errCh <- err
					return
				}
				if _, err := p.SearchBTree("userIdx", adm.String("u1")); err != nil {
					errCh <- err
					return
				}
			}
		}(p, pi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for pi, p := range ps {
		n, err := p.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || n > 64 {
			t.Fatalf("partition %d Count = %d, want 1..64 (overlapping upserts)", pi, n)
		}
	}
}
