package storage

import (
	"fmt"
	"strings"

	"asterixfeeds/internal/adm"
)

// IndexKind selects a secondary index structure.
type IndexKind int

// Secondary index kinds.
const (
	// BTree indexes an arbitrary field by its binary-comparable encoding.
	BTree IndexKind = iota
	// RTree indexes a point field with a grid-cell scheme supporting
	// rectangle queries.
	RTree
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case BTree:
		return "btree"
	case RTree:
		return "rtree"
	default:
		return "unknown"
	}
}

// IndexDecl declares a secondary index over one field of a dataset.
type IndexDecl struct {
	// Name is the index name, unique within the dataset.
	Name string
	// Field is the indexed field of the dataset's record type.
	Field string
	// Kind selects btree or rtree.
	Kind IndexKind
}

// Dataset describes a stored dataset: its type, primary key, nodegroup, and
// secondary indexes. Records are hash-partitioned by primary key across the
// nodegroup.
type Dataset struct {
	// Dataverse and Name identify the dataset.
	Dataverse, Name string
	// Type is the dataset's (open or closed) record type.
	Type *adm.RecordType
	// PrimaryKey lists the primary key field names.
	PrimaryKey []string
	// NodeGroup lists the nodes hosting partitions; partition i lives on
	// NodeGroup[i].
	NodeGroup []string
	// Indexes lists the dataset's secondary indexes.
	Indexes []IndexDecl
	// Replicated enables synchronous partition replication: partition i
	// keeps an in-sync replica on ReplicaOf(i). The paper lists data
	// replication as future work (§9.2.2: "an AsterixDB node hosting an
	// in-sync replica of the lost data partition would become the
	// preferred choice for being an immediate substitute"); this
	// repository implements that extension.
	Replicated bool
}

// QualifiedName returns "dataverse.name".
func (d *Dataset) QualifiedName() string { return d.Dataverse + "." + d.Name }

// PrimaryKeyOf extracts and encodes the record's primary key.
func (d *Dataset) PrimaryKeyOf(rec *adm.Record) ([]byte, error) {
	var key []byte
	for _, f := range d.PrimaryKey {
		v, ok := rec.Field(f)
		if !ok || v.Tag() == adm.TagMissing || v.Tag() == adm.TagNull {
			return nil, fmt.Errorf("storage: record lacks primary key field %q", f)
		}
		key = adm.AppendValue(key, v)
	}
	return key, nil
}

// PartitionOf returns the partition index for a record, by hashing its
// primary key fields.
func (d *Dataset) PartitionOf(rec *adm.Record) (int, error) {
	if len(d.NodeGroup) == 0 {
		return 0, fmt.Errorf("storage: dataset %s has an empty nodegroup", d.QualifiedName())
	}
	h, err := d.primaryKeyHash(rec)
	if err != nil {
		return 0, err
	}
	return int(h % uint64(len(d.NodeGroup))), nil
}

// The composite primary-key hash folds each key field's adm.Hash into an
// FNV-style accumulator. Partition placement depends on these constants:
// changing them moves every stored record to another partition.
const (
	keyHashBasis uint64 = 1469598103934665603
	keyHashPrime uint64 = 1099511628211
)

func (d *Dataset) primaryKeyHash(rec *adm.Record) (uint64, error) {
	h := keyHashBasis
	for _, f := range d.PrimaryKey {
		v, ok := rec.Field(f)
		if !ok {
			return 0, fmt.Errorf("storage: record lacks primary key field %q", f)
		}
		h = h*keyHashPrime ^ adm.Hash(v)
	}
	return h, nil
}

// keyHashMaxInline is the primary-key width whose field references
// KeyHashFunc keeps on the stack; wider keys allocate one slice per record.
const keyHashMaxInline = 4

// KeyHashFunc returns a connector hash function over serialized records,
// suitable for hyracks.MToNHashPartition: it routes each record to the
// partition that PartitionOf would choose for the decoded record. It never
// decodes: one adm.ScanRecordFields pass picks out the primary-key fields'
// bytes and adm.HashEncoded hashes each in place. A record that is not
// well-formed, or lacks a key field, hashes to 0.
func (d *Dataset) KeyHashFunc() func(rec []byte) uint64 {
	keys := d.PrimaryKey
	return func(rec []byte) uint64 {
		var inline [keyHashMaxInline][]byte
		var vals [][]byte
		if len(keys) <= len(inline) {
			vals = inline[:len(keys)]
		} else {
			vals = make([][]byte, len(keys))
		}
		_, err := adm.ScanRecordFields(rec, func(name, enc []byte) bool {
			for i, k := range keys {
				if vals[i] == nil && k == string(name) {
					vals[i] = enc
				}
			}
			return true
		})
		if err != nil {
			return 0
		}
		h := keyHashBasis
		for _, enc := range vals {
			if enc == nil {
				return 0
			}
			fh, err := adm.HashEncoded(enc)
			if err != nil {
				return 0
			}
			h = h*keyHashPrime ^ fh
		}
		return h
	}
}

// ReplicaOf returns the node hosting partition i's replica: the next
// nodegroup member. Returns "" when replication is off or the nodegroup has
// a single node.
func (d *Dataset) ReplicaOf(i int) string {
	if !d.Replicated || len(d.NodeGroup) < 2 || i < 0 || i >= len(d.NodeGroup) {
		return ""
	}
	return d.NodeGroup[(i+1)%len(d.NodeGroup)]
}

// Index returns the declared index named name.
func (d *Dataset) Index(name string) (IndexDecl, bool) {
	for _, ix := range d.Indexes {
		if ix.Name == name {
			return ix, true
		}
	}
	return IndexDecl{}, false
}

// Validate checks the declaration for internal consistency.
func (d *Dataset) Validate() error {
	if d.Name == "" || d.Dataverse == "" {
		return fmt.Errorf("storage: dataset requires dataverse and name")
	}
	if d.Type == nil {
		return fmt.Errorf("storage: dataset %s has no type", d.QualifiedName())
	}
	if len(d.PrimaryKey) == 0 {
		return fmt.Errorf("storage: dataset %s has no primary key", d.QualifiedName())
	}
	for _, f := range d.PrimaryKey {
		if _, ok := d.Type.Field(f); !ok && !d.Type.Open() {
			return fmt.Errorf("storage: primary key field %q not in type %s", f, d.Type.Name())
		}
	}
	seen := map[string]bool{}
	for _, ix := range d.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("storage: dataset %s has an unnamed index", d.QualifiedName())
		}
		if seen[ix.Name] {
			return fmt.Errorf("storage: dataset %s has duplicate index %q", d.QualifiedName(), ix.Name)
		}
		seen[ix.Name] = true
	}
	return nil
}

// dirName converts a qualified dataset name to a filesystem-safe directory
// name.
func (d *Dataset) dirName() string {
	return strings.ReplaceAll(d.QualifiedName(), "/", "_")
}
