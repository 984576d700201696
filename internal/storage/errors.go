package storage

import (
	"errors"
	"fmt"
)

// DataError marks a failure caused by the records themselves — validation,
// malformed encoding, a missing primary key — rather than by the
// environment (WAL write, fsync, node state). Ingestion policy treats the
// two differently: a data error is a soft failure (log, skip, ack under
// the feed's soft-failure policy) while an environmental error must leave
// the record un-acked so the at-least-once protocol replays it.
//
// InsertFrame returns one DataError naming every rejected record of the
// frame, so a caller can skip exactly those and insert the rest.
type DataError struct {
	// Records lists the rejected records in frame order; never empty.
	Records []RecordError
}

// RecordError is one rejected record: its index in the frame and the cause.
type RecordError struct {
	Index int
	Err   error
}

func (e *DataError) Error() string {
	first := e.Records[0].Err.Error()
	if len(e.Records) == 1 {
		return first
	}
	return fmt.Sprintf("%d invalid records in frame; record %d: %s", len(e.Records), e.Records[0].Index, first)
}

// Unwrap exposes every record's cause to errors.Is and errors.As.
func (e *DataError) Unwrap() []error {
	out := make([]error, len(e.Records))
	for i, r := range e.Records {
		out[i] = r.Err
	}
	return out
}

// IsDataError reports whether err is (or wraps) a DataError.
func IsDataError(err error) bool {
	var de *DataError
	return errors.As(err, &de)
}
