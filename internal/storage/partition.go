package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// Partition is one hash partition of a dataset: a primary LSM tree keyed by
// encoded primary key, plus one LSM tree per secondary index. All trees for
// a partition live under one directory on the hosting node.
type Partition struct {
	ds  *Dataset
	idx int

	mu          sync.Mutex
	primary     *lsm.Tree
	secondaries map[string]*lsm.Tree
	inserted    int64
	closed      bool
	frame       frameScratch // reusable InsertFrame state, guarded by mu
}

// encFieldRef is one (name, encoded value) pair captured while scanning a
// serialized record; both slices alias the record's bytes.
type encFieldRef struct {
	name, enc []byte
}

// frameScratch is per-partition scratch reused across InsertFrame calls so
// the steady-state frame path allocates only what the memtable retains
// (keys, batch growth) — not per-call bookkeeping.
type frameScratch struct {
	fields  []encFieldRef  // field scan of the current record
	pks     [][]byte       // per-record encoded primary key
	skeys   [][]byte       // per-record secondary keys, flattened nIdx per record
	pending map[string]int // pk -> latest record index within this frame
	prim    *lsm.Batch
	sec     []*lsm.Batch // parallel to ds.Indexes
}

// release drops references retained from the last frame (the memtable now
// owns the key slices) while keeping slice capacity for the next call.
func (fs *frameScratch) release() {
	for i := range fs.fields {
		fs.fields[i] = encFieldRef{}
	}
	fs.fields = fs.fields[:0]
	for i := range fs.pks {
		fs.pks[i] = nil
	}
	fs.pks = fs.pks[:0]
	for i := range fs.skeys {
		fs.skeys[i] = nil
	}
	fs.skeys = fs.skeys[:0]
	for k := range fs.pending {
		delete(fs.pending, k)
	}
	if fs.prim != nil {
		fs.prim.Reset()
	}
	for _, b := range fs.sec {
		if b != nil {
			b.Reset()
		}
	}
}

// scan fills fs.fields with rec's top-level fields, aliasing rec.
func (fs *frameScratch) scan(rec []byte) error {
	fs.fields = fs.fields[:0]
	_, err := adm.ScanRecordFields(rec, func(name, enc []byte) bool {
		fs.fields = append(fs.fields, encFieldRef{name: name, enc: enc})
		return true
	})
	return err
}

// ensureBatches allocates the per-tree batches on first use, sized for n
// operations, plus one secondary batch per index.
func (fs *frameScratch) ensureBatches(n, nIdx int) {
	if fs.prim == nil {
		fs.prim = lsm.NewBatch(n)
		fs.pending = make(map[string]int, n)
	}
	for len(fs.sec) < nIdx {
		fs.sec = append(fs.sec, lsm.NewBatch(n))
	}
}

// openPartition opens (creating if needed) partition idx of ds under dir.
// When lsmOpt carries a FaultHook, each tree's failure points are prefixed
// with "<partition-dir>/<tree>/" (e.g. "p001/primary/wal.appendBatch") so a
// fault-injection harness can target one tree of one partition.
func openPartition(ds *Dataset, idx int, dir string, lsmOpt lsm.Options) (*Partition, error) {
	p := &Partition{ds: ds, idx: idx, secondaries: make(map[string]*lsm.Tree)}
	label := filepath.Base(dir)
	// The primary and every secondary tree recover independently (separate
	// directories, separate WALs), so open them concurrently: a partition's
	// reopen cost is its slowest tree's recovery, not the sum.
	treeOpt := func(sub, hook string) lsm.Options {
		o := lsmOpt
		o.Dir = filepath.Join(dir, sub)
		o.FaultHook = prefixHook(lsmOpt.FaultHook, label+"/"+hook+"/")
		return o
	}
	trees := make([]*lsm.Tree, 1+len(ds.Indexes))
	errs := make([]error, len(trees))
	done := make(chan struct{}, len(trees))
	open := func(slot int, opt lsm.Options) {
		trees[slot], errs[slot] = lsm.Open(opt)
		done <- struct{}{} // buffered to len(trees): never blocks
	}
	go open(0, treeOpt("primary", "primary"))
	for i, ix := range ds.Indexes {
		go open(1+i, treeOpt("idx-"+ix.Name, ix.Name))
	}
	for range trees {
		<-done
	}
	p.primary = trees[0]
	for i, ix := range ds.Indexes {
		if trees[1+i] != nil {
			p.secondaries[ix.Name] = trees[1+i]
		}
	}
	for _, err := range errs {
		if err != nil {
			_ = p.Close() // releases whichever trees did open
			return nil, err
		}
	}
	return p, nil
}

// prefixHook narrows a manager-wide fault hook to one tree by prefixing
// every failure-point name. It owns the nil contract: a nil hook maps to a
// nil hook, so the returned closure only ever wraps a non-nil h.
//
//feedlint:nilsafe
func prefixHook(h lsm.FaultHook, prefix string) lsm.FaultHook {
	if h == nil {
		return nil
	}
	return func(op string) error { return h(prefix + op) }
}

// Index reports this partition's index within the nodegroup.
func (p *Partition) Index() int { return p.idx }

// Dataset returns the partition's dataset declaration.
func (p *Partition) Dataset() *Dataset { return p.ds }

// Insert validates rec against the dataset type and writes it: a
// one-record InsertFrame.
func (p *Partition) Insert(rec *adm.Record) error {
	return p.InsertFrame([][]byte{adm.Encode(rec)})
}

// InsertFrame is the partition's write path: it inserts a whole frame of
// serialized records as one batched write per index. Every record is
// validated and keyed straight from its bytes (no decode, no re-encode),
// then the primary tree and each secondary tree receive a single lsm.Batch
// — one lock acquisition, one composite WAL record, and at most one fsync
// per tree for the entire frame (group commit).
//
// The frame is all-or-nothing with respect to bad records: validation and
// key extraction run over the whole frame before any tree is touched, and
// if any record fails, the partition is left unmodified and the returned
// *DataError names every failing record with its cause, so the caller can
// drop exactly those and retry the rest. Any other error is environmental.
// Within a frame, a later record with the same primary key replaces an
// earlier one, exactly as two sequential Inserts would. The partition
// retains the record byte slices; callers recycling frame buffers must not
// reuse the record bytes afterwards (see hyracks.PutFrame).
func (p *Partition) InsertFrame(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("storage: partition closed")
	}
	fs := &p.frame
	defer fs.release()
	nIdx := len(p.ds.Indexes)

	// Phase A: validate every record and derive all keys, mutating nothing.
	var bad []RecordError
	for i, rec := range recs {
		if err := p.keyRecord(fs, rec); err != nil {
			bad = append(bad, RecordError{Index: i, Err: err})
		}
	}
	if bad != nil {
		return &DataError{Records: bad}
	}

	// Phase B: build one batch per tree and apply them.
	fs.ensureBatches(len(recs), nIdx)
	for i, rec := range recs {
		pk := fs.pks[i]
		if prev, dup := fs.pending[string(pk)]; dup {
			// An earlier record in this frame used the same key: unhook the
			// secondary entries it queued. Batch order makes the later Put
			// win when old and new keys coincide.
			for j := 0; j < nIdx; j++ {
				if old := fs.skeys[prev*nIdx+j]; old != nil {
					fs.sec[j].Delete(old)
				}
			}
		} else if _, err := p.unhookStoredLocked(fs, pk); err != nil {
			return err
		}
		fs.pending[string(pk)] = i
		fs.prim.Put(pk, rec)
		for j := 0; j < nIdx; j++ {
			if skey := fs.skeys[i*nIdx+j]; skey != nil {
				fs.sec[j].Put(skey, pk)
			}
		}
	}
	// p.mu spans the group-commit fsyncs of every tree: a record's primary
	// and secondary entries must change atomically, so the partition
	// accepts stalling on the trees' fsyncs.
	//feedlint:allow lockorder -- record-level atomicity across primary and secondaries requires p.mu over durable writes
	if err := p.primary.ApplyBatch(fs.prim); err != nil {
		return err
	}
	for j, ix := range p.ds.Indexes {
		if err := p.secondaries[ix.Name].ApplyBatch(fs.sec[j]); err != nil {
			return err
		}
	}
	p.inserted += int64(len(recs))
	return nil
}

// keyRecord validates one serialized record and appends its primary key
// and per-index secondary keys (nil when not indexed) to fs. Every error
// is the record's fault.
func (p *Partition) keyRecord(fs *frameScratch, rec []byte) error {
	if err := p.ds.Type.ValidateEncoded(rec); err != nil {
		return err
	}
	if err := fs.scan(rec); err != nil {
		return err
	}
	pk, err := primaryKeyFromFields(p.ds, fs.fields)
	if err != nil {
		return err
	}
	fs.pks = append(fs.pks, pk)
	for _, ix := range p.ds.Indexes {
		skey, ok, err := secondaryKeyEncoded(ix, findField(fs.fields, ix.Field), pk)
		if err != nil {
			return err
		}
		if !ok {
			skey = nil
		}
		fs.skeys = append(fs.skeys, skey)
	}
	return nil
}

// unhookStoredLocked queues, into fs.sec, deletes of the secondary entries
// of the record stored under pk and reports whether there is one. The old
// keys are derived from the stored bytes, exactly as InsertFrame derived
// them when it wrote them.
func (p *Partition) unhookStoredLocked(fs *frameScratch, pk []byte) (bool, error) {
	old, found, err := p.primary.Get(pk)
	if err != nil || !found {
		return false, err
	}
	if err := fs.scan(old); err != nil {
		return true, fmt.Errorf("storage: stored record for pk %x: %w", pk, err)
	}
	for j, ix := range p.ds.Indexes {
		skey, present, err := secondaryKeyEncoded(ix, findField(fs.fields, ix.Field), pk)
		if err != nil {
			return true, err
		}
		if present {
			fs.sec[j].Delete(skey)
		}
	}
	return true, nil
}

// findField returns the encoded value of the named field from a scanned
// field list, or nil when absent.
func findField(fields []encFieldRef, name string) []byte {
	for _, f := range fields {
		if string(f.name) == name {
			return f.enc
		}
	}
	return nil
}

// primaryKeyFromFields concatenates the raw encoded primary key fields —
// byte-identical to Dataset.PrimaryKeyOf on the decoded record, since the
// encoding is canonical.
func primaryKeyFromFields(ds *Dataset, fields []encFieldRef) ([]byte, error) {
	total := 0
	for _, f := range ds.PrimaryKey {
		enc := findField(fields, f)
		if enc == nil || adm.TypeTag(enc[0]) == adm.TagMissing || adm.TypeTag(enc[0]) == adm.TagNull {
			return nil, fmt.Errorf("storage: record lacks primary key field %q", f)
		}
		total += len(enc)
	}
	pk := make([]byte, 0, total)
	for _, f := range ds.PrimaryKey {
		pk = append(pk, findField(fields, f)...)
	}
	return pk, nil
}

// secondaryKeyEncoded builds a record's secondary index key from the
// indexed field's encoded bytes — the same key secondaryKey builds from the
// decoded value. ok=false means the field is absent/null and the record is
// simply not indexed.
func secondaryKeyEncoded(ix IndexDecl, encField, pk []byte) (key []byte, ok bool, err error) {
	if len(encField) == 0 {
		return nil, false, nil
	}
	tag := adm.TypeTag(encField[0])
	if tag == adm.TagNull || tag == adm.TagMissing {
		return nil, false, nil
	}
	switch ix.Kind {
	case BTree:
		key = make([]byte, 0, len(encField)+len(pk))
		key = append(key, encField...)
	case RTree:
		if tag != adm.TagPoint || len(encField) < 17 {
			return nil, false, fmt.Errorf("storage: rtree index %q over non-point value %s", ix.Name, tag)
		}
		pt := adm.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(encField[1:9])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(encField[9:17])),
		}
		key = cellPrefix(cellOf(pt))
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:], math.Float64bits(pt.X))
		binary.BigEndian.PutUint64(buf[8:], math.Float64bits(pt.Y))
		key = append(key, buf[:]...)
	default:
		return nil, false, fmt.Errorf("storage: unknown index kind %d", ix.Kind)
	}
	return append(key, pk...), true, nil
}

// Delete removes the record with the given primary key fields. Its
// secondary entries go first, so a failure part-way leaves a primary
// record a retried Delete still finds and finishes.
func (p *Partition) Delete(pkValues []adm.Value) error {
	if len(pkValues) != len(p.ds.PrimaryKey) {
		return fmt.Errorf("storage: %d key values for %d-field primary key", len(pkValues), len(p.ds.PrimaryKey))
	}
	var pk []byte
	for _, v := range pkValues {
		pk = adm.AppendValue(pk, v)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("storage: partition closed")
	}
	fs := &p.frame
	defer fs.release()
	fs.ensureBatches(1, len(p.ds.Indexes))
	if found, err := p.unhookStoredLocked(fs, pk); err != nil || !found {
		return err
	}
	for j, ix := range p.ds.Indexes {
		if err := p.secondaries[ix.Name].ApplyBatch(fs.sec[j]); err != nil {
			return err
		}
	}
	return p.primary.Delete(pk)
}

// Lookup returns the record with the given primary key fields.
func (p *Partition) Lookup(pkValues []adm.Value) (*adm.Record, bool, error) {
	var pk []byte
	for _, v := range pkValues {
		pk = adm.AppendValue(pk, v)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false, fmt.Errorf("storage: partition closed")
	}
	val, ok, err := p.primary.Get(pk)
	if err != nil || !ok {
		return nil, false, err
	}
	rec, err := decodeStored(val)
	if err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// decodeStored decodes a stored primary value back into its record.
func decodeStored(val []byte) (*adm.Record, error) {
	v, err := adm.DecodeOne(val)
	if err != nil {
		return nil, err
	}
	rec, ok := v.(*adm.Record)
	if !ok {
		return nil, fmt.Errorf("storage: stored value is not a record")
	}
	return rec, nil
}

// Scan invokes fn for every record in the partition in primary key order.
// fn returning false stops early.
func (p *Partition) Scan(fn func(rec *adm.Record) bool) error {
	var decErr error
	err := p.ScanEncoded(func(val []byte) bool {
		rec, err := decodeStored(val)
		if err != nil {
			decErr = err
			return false
		}
		return fn(rec)
	})
	if decErr != nil {
		return decErr
	}
	return err
}

// ScanEncoded invokes fn with every stored record's serialized bytes in
// primary key order; fn returning false stops early. rec aliases storage
// memory: fn must not modify it, and must copy it to keep it past the call.
func (p *Partition) ScanEncoded(fn func(rec []byte) bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("storage: partition closed")
	}
	return p.primary.Scan(nil, nil, func(_, val []byte) bool { return fn(val) })
}

// Count reports the number of live records.
func (p *Partition) Count() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, fmt.Errorf("storage: partition closed")
	}
	return p.primary.Len()
}

// Inserted reports the number of successful Insert calls since open
// (a cheap counter; unlike Count it does not scan).
func (p *Partition) Inserted() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inserted
}

// SearchBTree returns the primary keys of records whose indexed field equals
// value, using the named btree index.
func (p *Partition) SearchBTree(indexName string, value adm.Value) ([]*adm.Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("storage: partition closed")
	}
	ix, ok := p.ds.Index(indexName)
	if !ok || ix.Kind != BTree {
		return nil, fmt.Errorf("storage: no btree index %q on %s", indexName, p.ds.QualifiedName())
	}
	t := p.secondaries[indexName]
	prefix := adm.Encode(value)
	upper := prefixUpperBound(prefix)
	var out []*adm.Record
	var innerErr error
	err := t.Scan(prefix, upper, func(_, pk []byte) bool {
		val, found, err := p.primary.Get(pk)
		if err != nil {
			innerErr = err
			return false
		}
		if !found {
			return true
		}
		rec, err := decodeStored(val)
		if err != nil {
			innerErr = err
			return false
		}
		out = append(out, rec)
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	return out, err
}

// SearchRTree returns records whose indexed point field lies within rect,
// using the named rtree index.
func (p *Partition) SearchRTree(indexName string, rect adm.Rectangle) ([]*adm.Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("storage: partition closed")
	}
	ix, ok := p.ds.Index(indexName)
	if !ok || ix.Kind != RTree {
		return nil, fmt.Errorf("storage: no rtree index %q on %s", indexName, p.ds.QualifiedName())
	}
	t := p.secondaries[indexName]
	var out []*adm.Record
	var innerErr error
	for _, cell := range cellsCovering(rect) {
		prefix := cellPrefix(cell)
		upper := prefixUpperBound(prefix)
		err := t.Scan(prefix, upper, func(key, pk []byte) bool {
			pt, ok := pointFromRTreeKey(key)
			if !ok || !rect.Contains(pt) {
				return true
			}
			val, found, err := p.primary.Get(pk)
			if err != nil {
				innerErr = err
				return false
			}
			if !found {
				return true
			}
			rec, err := decodeStored(val)
			if err != nil {
				innerErr = err
				return false
			}
			out = append(out, rec)
			return true
		})
		if innerErr != nil {
			return nil, innerErr
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// VerifyIndexes cross-checks primary/secondary consistency: every stored
// record must have exactly its expected entry in every secondary tree
// (mapping back to its primary key), and no secondary tree may hold
// dangling entries beyond those. Full scan per tree — intended for test
// harnesses and invariant checkers, not the hot path.
func (p *Partition) VerifyIndexes() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("storage: partition closed")
	}
	expect := make(map[string]int, len(p.ds.Indexes))
	var checkErr error
	err := p.primary.Scan(nil, nil, func(pk, val []byte) bool {
		rec, err := decodeStored(val)
		if err != nil {
			checkErr = err
			return false
		}
		// Expected keys come from the decoded record (secondaryKey), not
		// from the bytes the write path keys with (secondaryKeyEncoded):
		// an independent reference, so a key-derivation defect shows.
		for _, ix := range p.ds.Indexes {
			skey, present, err := secondaryKey(ix, rec, pk)
			if err != nil {
				checkErr = err
				return false
			}
			if !present {
				continue
			}
			got, found, err := p.secondaries[ix.Name].Get(skey)
			if err != nil {
				checkErr = err
				return false
			}
			if !found {
				checkErr = fmt.Errorf("storage: index %q missing entry for pk %x", ix.Name, pk)
				return false
			}
			if string(got) != string(pk) {
				checkErr = fmt.Errorf("storage: index %q entry for pk %x points at %x", ix.Name, pk, got)
				return false
			}
			expect[ix.Name]++
		}
		return true
	})
	if checkErr != nil {
		return checkErr
	}
	if err != nil {
		return err
	}
	for _, ix := range p.ds.Indexes {
		n, err := p.secondaries[ix.Name].Len()
		if err != nil {
			return err
		}
		if n != expect[ix.Name] {
			return fmt.Errorf("storage: index %q holds %d entries, want %d (dangling entries)", ix.Name, n, expect[ix.Name])
		}
	}
	return nil
}

// Flush flushes the primary and secondary trees to disk.
func (p *Partition) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	// Flush must see a quiesced partition: p.mu keeps writers out while
	// every tree drains its background pipeline. The trees never hold a
	// lock into a blocking primitive here — Tree.Flush waits on
	// close-signaled channels — so no lockorder waiver is needed anymore.
	if err := p.primary.Flush(); err != nil {
		return err
	}
	for _, t := range p.secondaries {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates LSM component statistics across the partition's primary
// and secondary trees.
func (p *Partition) Stats() lsm.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return lsm.Stats{}
	}
	out := p.primary.Stats()
	for _, t := range p.secondaries {
		out.Add(t.Stats())
	}
	return out
}

// Close releases the partition's trees.
func (p *Partition) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var first error
	if p.primary != nil {
		if err := p.primary.Close(); err != nil {
			first = err
		}
	}
	for _, t := range p.secondaries {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// secondaryKey builds the secondary index key for a decoded rec: the
// indexed field's encoding (or grid cell for rtree) concatenated with the
// primary key, so duplicate field values remain distinct entries. ok=false
// means the field is absent/null and the record is simply not indexed.
// Only VerifyIndexes uses it, as the reference secondaryKeyEncoded must
// agree with.
func secondaryKey(ix IndexDecl, rec *adm.Record, pk []byte) (key []byte, ok bool, err error) {
	v, present := rec.Field(ix.Field)
	if !present || v.Tag() == adm.TagNull || v.Tag() == adm.TagMissing {
		return nil, false, nil
	}
	switch ix.Kind {
	case BTree:
		key = adm.Encode(v)
	case RTree:
		pt, isPt := v.(adm.Point)
		if !isPt {
			return nil, false, fmt.Errorf("storage: rtree index %q over non-point value %s", ix.Name, v.Tag())
		}
		key = cellPrefix(cellOf(pt))
		// Embed the exact point for in-index filtering.
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:], math.Float64bits(pt.X))
		binary.BigEndian.PutUint64(buf[8:], math.Float64bits(pt.Y))
		key = append(key, buf[:]...)
	default:
		return nil, false, fmt.Errorf("storage: unknown index kind %d", ix.Kind)
	}
	return append(key, pk...), true, nil
}

// prefixUpperBound returns the smallest byte string greater than every
// string with the given prefix, or nil when no such bound exists.
func prefixUpperBound(prefix []byte) []byte {
	up := append([]byte(nil), prefix...)
	for i := len(up) - 1; i >= 0; i-- {
		if up[i] != 0xFF {
			up[i]++
			return up[:i+1]
		}
	}
	return nil
}
