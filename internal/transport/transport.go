// Package transport defines the point-to-point message substrate that the
// comm layer (accounting and collective operations) runs on. The paper's
// algorithms were built on MPI over InfiniBand; this reproduction makes the
// delivery mechanism pluggable: the same algorithm code runs unchanged over
// in-process goroutine mailboxes (transport/local) or over real sockets
// between OS processes (transport/tcp).
//
// A Transport is one processing element's endpoint. Its semantics follow
// MPI point-to-point messaging:
//
//   - Send copies (or fully serializes) its payload before returning, so
//     the caller retains ownership of the slice and a PE can never observe
//     another PE's memory.
//   - Sends never block waiting for a matching receive (eager/buffered
//     delivery with unbounded queues), which the comm layer's collectives
//     rely on for deadlock freedom.
//   - Messages between a fixed (sender, receiver) pair with the same tag
//     are non-overtaking; Recv selects the earliest pending message from
//     the requested source with the requested tag.
//
// Byte accounting is deliberately NOT a transport concern: the comm layer
// attributes communication volume at its own Send/Recv boundary, so the
// paper's "bytes sent per string" statistics are identical no matter which
// backend carries the messages.
package transport

import "time"

// Transport is one PE's endpoint of the message substrate.
type Transport interface {
	// Rank returns this endpoint's rank in [0, P).
	Rank() int
	// P returns the number of PEs of the fabric this endpoint belongs to.
	P() int
	// Send transmits data to dst with the given tag. The payload is copied
	// (or written out) before Send returns; the caller retains ownership of
	// data. Send never blocks waiting for the receiver. Delivery failures
	// are programming or infrastructure errors and panic.
	Send(dst, tag int, data []byte)
	// Recv blocks until a message with the given tag arrives from src and
	// returns its payload. The returned slice is owned by the caller. Recv
	// panics if the endpoint is closed or the peer connection is lost while
	// waiting.
	Recv(src, tag int) []byte
	// RecvAny blocks until a message with the given tag is available from
	// ANY of the listed sources, removes it, and returns it together with
	// the rank it came from and its delivery time (the moment the message
	// became receivable, which may predate the call when the payload sat
	// queued — the split-phase overlap model needs arrival, not pickup,
	// times). It is the readiness primitive of the split-phase
	// collectives: received runs can be processed in arrival order instead
	// of a fixed rank order. Like Recv it panics if a needed peer
	// connection is lost while waiting. srcs must be non-empty and may
	// include the endpoint's own rank.
	RecvAny(srcs []int, tag int) (src int, data []byte, arrived time.Time)
	// Release returns payload buffers (typically obtained from Recv) to the
	// endpoint's buffer pool for reuse. Callers must no longer reference the
	// buffers or any sub-slice of them. Releasing is optional and never
	// required for correctness.
	Release(bufs ...[]byte)
	// Close tears the endpoint down. Blocked and future Recvs panic. Close
	// is idempotent.
	Close() error
}

// ConnDropper is an optional capability of a Transport: fault injection
// for backends with real connections. DropConn arms a one-shot trap on the
// connection to peer — the next write to that peer is truncated after
// afterBytes bytes and the connection is torn down, exactly as if the
// network had cut it mid-frame. It reports false when the backend has no
// droppable connection to that peer (the local backend, or peer == own
// rank). The chaos decorator (transport/chaos) is the only intended
// caller; a backend that implements ConnDropper must survive its own
// injected drops (reconnect and resend, see transport/tcp).
type ConnDropper interface {
	DropConn(peer int, afterBytes int) bool
}

// Fabric is a connected set of P endpoints, one per rank. In-process runs
// (the local backend, or the TCP backend bound to loopback ports) hold all
// endpoints of the fabric in one process; SPMD multi-process runs construct
// a single endpoint per process instead (see tcp.Connect) and never see a
// Fabric.
type Fabric interface {
	// P returns the number of endpoints.
	P() int
	// Endpoint returns the endpoint of the given rank. Each endpoint is
	// confined to the goroutine running its PE.
	Endpoint(rank int) Transport
	// Close tears down every endpoint of the fabric.
	Close() error
}
