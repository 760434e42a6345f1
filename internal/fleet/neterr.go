package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
)

// FaultClass labels a coordinator-observed dispatch failure by wire
// symptom — the observation-side mirror of the injection taxonomy in
// internal/netchaos. Classes surface as fleet.net.faults{class} counters and
// in Stats.NetFaults, so an operator can tell a flaky link (drop,
// timeout) from a corrupting middlebox (truncated, corrupt) from a
// misbehaving worker (mismatch) without reading logs.
type FaultClass string

const (
	// ClassTimeout: the lease TTL expired with no response — a hung
	// worker or a black-holed route.
	ClassTimeout FaultClass = "timeout"
	// ClassDrop: the connection failed outright (reset, refused,
	// aborted mid-response).
	ClassDrop FaultClass = "drop"
	// ClassTruncated: the response body ended mid-JSON — a connection
	// cut after the headers.
	ClassTruncated FaultClass = "truncated"
	// ClassCorrupt: the body arrived whole but is not valid JSON (or
	// not the expected shape).
	ClassCorrupt FaultClass = "corrupt"
	// ClassMismatch: well-formed JSON whose evaluations do not answer
	// the shard that was asked — wrong count or wrong assignment keys.
	// A protocol bug or a byzantine worker.
	ClassMismatch FaultClass = "mismatch"
	// ClassThrottle: the worker refused with 429 + Retry-After.
	ClassThrottle FaultClass = "throttle"
	// ClassBusy: the worker shed with 503 + Retry-After.
	ClassBusy FaultClass = "busy"
	// ClassOther: everything else (unexpected status, marshal errors).
	ClassOther FaultClass = "other"
)

// WireError is a classified dispatch failure.
type WireError struct {
	Worker string
	Class  FaultClass
	Err    error
}

func (e *WireError) Error() string {
	return fmt.Sprintf("worker %s: %s fault: %v", e.Worker, e.Class, e.Err)
}

func (e *WireError) Unwrap() error { return e.Err }

// classOf extracts the fault class from a dispatch error.
func classOf(err error) FaultClass {
	var we *WireError
	if errors.As(err, &we) {
		return we.Class
	}
	return ClassOther
}

// classifyTransport maps a client.Do failure: a deadline that fired is
// a timeout (the lease TTL elapsed), everything else is a drop.
func classifyTransport(err error) FaultClass {
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	return ClassDrop
}

// classifyDecode maps a response-body decode failure: an EOF mid-value
// is truncation, a syntax or type error is corruption.
func classifyDecode(err error) FaultClass {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return ClassTruncated
	}
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	if errors.As(err, &syn) || errors.As(err, &typ) {
		return ClassCorrupt
	}
	return ClassCorrupt
}
