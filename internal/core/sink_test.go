package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/governor"
)

// TestBatchingSinkDepositsInCutOrder: frames reach the joint in the order
// the sink cut them from its buffer. Both Emit (on a full frame) and the
// flush timer cut frames, so if a frame cut later could be deposited first,
// the store would apply an older version of a key last. The flush interval
// is shrunk so the timer cuts a frame every few records, and the head gate
// of a governor over its normal-class threshold meters deposits: a frame
// refused tokens sleeps out a poll interval between being cut and being
// deposited, and a frame cut after it may find tokens at once. Every
// record must also be in the joint once stop returns, including a frame
// the timer was still depositing.
func TestBatchingSinkDepositsInCutOrder(t *testing.T) {
	const sinks, records = 4, 4000
	g := governor.New("A", governor.Config{BudgetBytes: 1 << 20, PressureInterval: -1})
	g.RegisterSource("test", func() int64 { return 1 << 20 })
	var wg sync.WaitGroup
	errs := make(chan error, sinks)
	for i := 0; i < sinks; i++ {
		j := newJoint("feeds.F", "A", i)
		sub, err := j.Subscribe("c", &Policy{MemoryBudgetRecords: 1 << 30}, "")
		if err != nil {
			t.Fatal(err)
		}
		sink := newBatchingSink(j, 4, 50*time.Microsecond, make(chan struct{}))
		sink.adm = g.Admission(fmt.Sprintf("head:%d", i), governor.ClassNormal)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for n := 0; n < records; n++ {
				rec := (&adm.RecordBuilder{}).Add("n", adm.Int64(n)).MustBuild()
				if err := sink.Emit(rec); err != nil {
					errs <- err
					break
				}
			}
			sink.stop()
			j.Unsubscribe("c")
		}()
		go func() {
			defer wg.Done()
			next := 0
			for {
				f, ok := sub.Next(nil)
				if !ok {
					break
				}
				for _, enc := range f.Records {
					v, err := adm.DecodeOne(enc)
					if err != nil {
						errs <- err
						return
					}
					n, _ := v.(*adm.Record).Field("n")
					if int(n.(adm.Int64)) != next {
						errs <- fmt.Errorf("sink %d: record %d arrived where %d was due", i, n, next)
						return
					}
					next++
				}
			}
			if next != records {
				errs <- fmt.Errorf("sink %d: received %d records, want %d", i, next, records)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
