package storage

import (
	"fmt"
	"runtime"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// BenchmarkInsertPath measures what frame granularity buys the write path
// over identical serialized input (128 records per frame):
//
//   - record-at-a-time: a one-record InsertFrame per record — per-record
//     lock acquisition and per-record WAL record in every tree.
//   - frame-at-a-time: InsertFrame per frame — one lock, one composite WAL
//     record and one deferred sync per index (group commit).
//
// Both arms validate and key records straight from their bytes.
//
// Record generation runs outside the timed sections; ns/record and
// allocs/record cover only the insert calls.
func BenchmarkInsertPath(b *testing.B) {
	const batchSize = 128

	genBatch := func(iter int) [][]byte {
		recs := make([][]byte, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			n := iter*batchSize + j
			pt := adm.Point{X: float64(n % 100), Y: float64(n % 50)}
			b := (&adm.RecordBuilder{}).
				Add("id", adm.String(fmt.Sprintf("t-%09d", n))).
				Add("user_name", adm.String(fmt.Sprintf("u%d", n%100))).
				Add("message_text", adm.String("the quick brown fox jumps over the lazy dog")).
				Add("location", pt).
				MustBuild()
			recs = append(recs, adm.Encode(b))
		}
		return recs
	}

	openBenchPartition := func(b *testing.B) *Partition {
		b.Helper()
		ds := testDataset("A")
		m := NewManager("A", b.TempDir(), lsm.Options{MemtableBytes: 256 << 20})
		b.Cleanup(func() { m.Close() })
		p, err := m.OpenPartition(ds)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}

	run := func(b *testing.B, insert func(p *Partition, recs [][]byte) error) {
		p := openBenchPartition(b)
		var allocs uint64
		var m0, m1 runtime.MemStats
		b.ResetTimer()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			recs := genBatch(i)
			runtime.ReadMemStats(&m0)
			b.StartTimer()
			if err := insert(p, recs); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			allocs += m1.Mallocs - m0.Mallocs
		}
		records := float64(b.N * batchSize)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
		b.ReportMetric(float64(allocs)/records, "allocs/record")
	}

	b.Run("record-at-a-time", func(b *testing.B) {
		run(b, func(p *Partition, recs [][]byte) error {
			for i := range recs {
				if err := p.InsertFrame(recs[i : i+1]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("frame-at-a-time", func(b *testing.B) {
		run(b, func(p *Partition, recs [][]byte) error {
			return p.InsertFrame(recs)
		})
	})
}
