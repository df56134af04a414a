package telemetry

import (
	"encoding/binary"
	"fmt"
)

// TraceContext is the cluster's wire-propagated trace identity: a
// trace ID shared by every span of one request, the ID of the span
// that emitted the frame (the receiver's parent), and a flags byte
// whose sampling bit decides whether nodes record spans at all. The
// zero value is "not traced" and encodes/propagates harmlessly.
type TraceContext struct {
	// TraceID identifies the whole request across nodes.
	TraceID uint64
	// SpanID identifies the sender's span — the parent of any span the
	// receiver starts for this frame.
	SpanID uint64
	// Flags carries the trace flag bits; see FlagSampled.
	Flags uint8
}

// FlagSampled marks a trace the minting client chose to record; nodes
// only allocate spans for sampled traces, and only sampled requests put
// a context on the wire at all.
const FlagSampled = 0x01

// TraceContextLen is the encoded size of a TraceContext:
// traceID(8) | spanID(8) | flags(1).
const TraceContextLen = 17

// Sampled reports whether the sampling bit is set.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// String renders the trace ID as fixed-width hex — the form /debug/traces
// serves and the slow-trace log emits, so the three surfaces grep alike.
func (tc TraceContext) String() string { return fmt.Sprintf("%016x", tc.TraceID) }

// AppendTraceContext appends the 17-byte wire encoding of tc to dst —
// the layout a traced frame carries behind its request ID.
func AppendTraceContext(dst []byte, tc TraceContext) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, tc.SpanID)
	return append(dst, tc.Flags)
}

// DecodeTraceContext decodes a TraceContext from the first
// TraceContextLen bytes of b; ok is false when b is too short.
func DecodeTraceContext(b []byte) (tc TraceContext, ok bool) {
	if len(b) < TraceContextLen {
		return TraceContext{}, false
	}
	tc.TraceID = binary.BigEndian.Uint64(b[0:8])
	tc.SpanID = binary.BigEndian.Uint64(b[8:16])
	tc.Flags = b[16]
	return tc, true
}
