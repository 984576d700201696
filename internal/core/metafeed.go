package core

import (
	"fmt"
	"sync"
	"time"
)

// ExceptionEntry is one logged soft failure (§6.1.2).
type ExceptionEntry struct {
	// Time is when the exception occurred.
	Time time.Time
	// Operator names the operator that raised it (assign, store, ...).
	Operator string
	// Node is the hosting node.
	Node string
	// Err is the exception's message.
	Err string
	// Record holds the offending record's payload when the policy sets
	// soft.failure.log.data.
	Record []byte
}

// ExceptionLog accumulates soft failures for a feed connection so the
// end-user can revisit them for diagnosis. At minimum the exception and the
// causing record are retained; a bounded ring keeps memory in check.
type ExceptionLog struct {
	mu      sync.Mutex
	entries []ExceptionEntry
	max     int
	total   int64
}

// NewExceptionLog creates a log retaining up to max entries (default 1000).
func NewExceptionLog(max int) *ExceptionLog {
	if max <= 0 {
		max = 1000
	}
	return &ExceptionLog{max: max}
}

// Append records one exception.
func (l *ExceptionLog) Append(e ExceptionEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.entries) == l.max {
		copy(l.entries, l.entries[1:])
		l.entries = l.entries[:l.max-1]
	}
	l.entries = append(l.entries, e)
}

// Entries returns a copy of the retained entries, oldest first.
func (l *ExceptionLog) Entries() []ExceptionEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ExceptionEntry(nil), l.entries...)
}

// Total reports the lifetime exception count (including evicted entries).
func (l *ExceptionLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// metaFeed is the MetaFeed wrapper of §6.1: it executes a core operator's
// per-record work in a sandbox, intercepting runtime exceptions (and panics)
// so the ingestion pipeline survives soft failures, skipping past the
// offending record exactly as the frame-slicing mechanism in the paper does.
// Separation of concerns: the wrapped operators stay oblivious to
// fault-handling.
type metaFeed struct {
	operator string
	node     string
	pol      *Policy
	log      *ExceptionLog

	mu          sync.Mutex
	consecutive int
}

func newMetaFeed(operator, node string, pol *Policy, log *ExceptionLog) *metaFeed {
	return &metaFeed{operator: operator, node: node, pol: pol, log: log}
}

// errTooManySoftFailures ends a feed that keeps failing on every record,
// which would indicate a systematic bug (§6.1.2).
type errTooManySoftFailures struct {
	operator string
	limit    int
}

func (e *errTooManySoftFailures) Error() string {
	return fmt.Sprintf("core: %s exceeded %d consecutive soft failures; terminating feed", e.operator, e.limit)
}

// succeeded records one record processed cleanly, ending any run of
// consecutive soft failures.
func (m *metaFeed) succeeded() {
	m.mu.Lock()
	m.consecutive = 0
	m.mu.Unlock()
}

// guard runs work for one record. A returned error or panic becomes a soft
// failure: logged, counted, and swallowed (skipped=true) when the policy
// permits recovery. The error return is non-nil only for fatal conditions
// (recovery disabled, or the consecutive-failure bound exceeded).
func (m *metaFeed) guard(record []byte, work func() error) (skipped bool, fatal error) {
	var soft error
	func() {
		defer func() {
			if r := recover(); r != nil {
				soft = fmt.Errorf("panic: %v", r)
			}
		}()
		soft = work()
	}()
	if soft == nil {
		m.succeeded()
		return false, nil
	}

	entry := ExceptionEntry{
		Time:     nowFunc(),
		Operator: m.operator,
		Node:     m.node,
		Err:      soft.Error(),
	}
	if m.pol.SoftFailureLogData {
		entry.Record = append([]byte(nil), record...)
	}
	if m.log != nil {
		m.log.Append(entry)
	}

	if !m.pol.RecoverSoft {
		return false, fmt.Errorf("core: %s soft failure with recovery disabled: %w", m.operator, soft)
	}
	m.mu.Lock()
	m.consecutive++
	n := m.consecutive
	m.mu.Unlock()
	if m.pol.MaxConsecutiveSoftFailures > 0 && n >= m.pol.MaxConsecutiveSoftFailures {
		return false, &errTooManySoftFailures{operator: m.operator, limit: m.pol.MaxConsecutiveSoftFailures}
	}
	return true, nil
}
