// Package tcp implements the multi-process transport backend: PEs exchange
// length-prefixed framed messages over persistent pairwise TCP connections,
// so p workers on one or many hosts execute a genuinely distributed sort.
//
// Topology and rendezvous. Every PE knows the full peer table (rank →
// host:port, identical on all PEs) and binds a listener on its own entry.
// Exactly one connection exists per unordered PE pair: rank i dials every
// rank j < i (transient connect failures retry with bounded exponential
// backoff until the peer's listener is up, capped by the rendezvous
// timeout) and accepts from every rank j > i. A 22-byte handshake in each
// direction (magic, protocol version, flags, rank, fabric size, delivered
// sequence) maps connections to ranks and rejects strangers; accepted
// handshakes run concurrently under the rendezvous deadline, so one
// stalled stranger cannot delay the whole mesh. The listener stays open
// after the rendezvous: it is the rendezvous point for reconnects.
//
// Wire format. One frame per message: an 8-byte little-endian sequence
// number, an 8-byte cumulative acknowledgement, an 8-byte tag, a 4-byte
// payload length, then the payload. Data frames carry per-direction
// monotone sequence numbers starting at 1; a frame with sequence 0 is a
// pure acknowledgement and carries no payload. Every frame — data or ack —
// piggybacks the sender's cumulative delivered sequence for the reverse
// direction. The connection is the (src, dst) pair, so ranks never travel
// with data frames.
//
// Surviving connection loss. Each direction keeps a bounded ring of sent
// but unacknowledged frames. When an established connection dies — a
// broken write, a read error, a frame that fails validation — the endpoint
// does not kill the run: the original dialer of the pair redials (reusing
// the rendezvous dial backoff) with a reconnect handshake that carries its
// delivered sequence, the acceptor's persistent listener adopts the
// replacement connection and replies with its own delivered sequence, and
// both sides resend exactly the suffix of the ring the peer has not
// delivered. Receivers enforce contiguous sequences, so a replayed
// duplicate is dropped idempotently and a gap is a connection error that
// the next reconnect repairs. Config.MaxReconnects and
// Config.ReconnectTimeout bound the patience; when they are exhausted the
// endpoint fails permanently: mailboxes close (blocked receivers panic
// with the cause), senders unblock, and Close reports the first error so
// the run's exit status reflects the failure instead of hanging.
//
// Delivery. A reader goroutine per connection drains frames into per-source
// mailboxes (shared with the local backend), which yields the substrate
// contract: sends never block indefinitely (the remote reader always
// drains, queues are unbounded, acknowledgements flow regardless of the
// application's receive pattern), per-pair same-tag messages are
// non-overtaking (sequence numbers make this hold across reconnects), and
// receives are tag-selective. Self-sends short-circuit through an
// in-memory mailbox without touching a socket — consistent with the
// accounting rule that no bytes leave the PE.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dss/internal/trace"
	"dss/internal/transport"
)

const (
	handshakeMagic    = 0x31535344 // "DSS1", little-endian
	protocolVersion   = 2
	handshakeLen      = 22 // magic u32 | version u8 | flags u8 | rank u32 | p u32 | delivered u64
	headerLen         = 28 // seq u64 | ack u64 | tag u64 | payload length u32
	maxPayload        = 1<<31 - 1
	defaultRendezvous = 30 * time.Second

	// flagReconnect marks a handshake that re-establishes a previously
	// connected pair; the delivered field then selects the resend suffix.
	flagReconnect = 1 << 0

	// seqGoodbye marks a control frame announcing a deliberate staged
	// shutdown: the sender has flushed — everything it sent is
	// acknowledged, everything it delivered is acked back — and will
	// close the connection next. The receiver parks the pair instead of
	// treating the following EOF as a fault. A bare EOF without a
	// goodbye is NEVER trusted as a shutdown: a connection cut exactly at
	// a frame boundary is indistinguishable from one, and must take the
	// reconnect path. (Data frames count from 1 and can never reach this
	// value; seq 0 is the pure ack.)
	seqGoodbye = ^uint64(0)

	// The resend ring bounds the frames parked per direction awaiting
	// acknowledgement. A full ring blocks Send until acks drain it — never
	// a deadlock, because the peer's reader drains and acknowledges
	// independently of its application's receive pattern.
	maxRingFrames = 1024
	maxRingBytes  = 32 << 20

	defaultReconnectTimeout = 10 * time.Second
	defaultMaxReconnects    = 8

	// Dial retries back off exponentially between these bounds. The first
	// retries come fast (workers of one job usually start within
	// milliseconds of each other, and a refused connection simply means the
	// peer's listener is not up yet), but a peer that stays away — a slow
	// container pull, a host still booting — must not be hammered with
	// thousands of SYNs for the rest of the rendezvous window.
	dialBackoffMin = 2 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

// Config tunes connection establishment and failure recovery.
type Config struct {
	// RendezvousTimeout bounds how long Connect waits for all peers to
	// appear (workers of an SPMD job may start seconds apart). Zero means
	// 30 s.
	RendezvousTimeout time.Duration
	// ReconnectTimeout bounds each reconnect attempt after an established
	// connection dies: the redialing side retries with the dial backoff
	// until this deadline, the accepting side waits this long for the
	// replacement to arrive. Zero means 10 s.
	ReconnectTimeout time.Duration
	// MaxReconnects bounds how many times each pairwise connection may be
	// re-established before the endpoint fails permanently. Zero means the
	// default (8); negative disables reconnection entirely — the first
	// drop of an established connection fails the endpoint, the pre-v2
	// behavior.
	MaxReconnects int
}

func (cfg Config) reconnectTimeout() time.Duration {
	if cfg.ReconnectTimeout == 0 {
		return defaultReconnectTimeout
	}
	return cfg.ReconnectTimeout
}

func (cfg Config) maxReconnects() int {
	switch {
	case cfg.MaxReconnects == 0:
		return defaultMaxReconnects
	case cfg.MaxReconnects < 0:
		return 0
	}
	return cfg.MaxReconnects
}

// Endpoint is one PE's endpoint of a TCP fabric. It implements
// transport.Transport. Send/Recv are confined to the PE's goroutine like
// every transport; the internal reader, acker and reconnect goroutines are
// managed by the endpoint itself.
type Endpoint struct {
	rank  int
	p     int
	cfg   Config
	conns []*peerConn          // conns[r], nil at own rank
	boxes []*transport.Mailbox // boxes[src]
	pool  transport.Pool
	ln    net.Listener  // kept open after rendezvous for reconnects
	done  chan struct{} // closed on teardown; unblocks internal goroutines

	rendezvoused atomic.Bool
	closing      atomic.Bool
	spawnMu      sync.Mutex // serializes goroutine spawn against teardown
	workers      sync.WaitGroup
	tdOnce       sync.Once
	closeOnce    sync.Once

	errMu    sync.Mutex
	firstErr error

	// Measured failure-recovery counters, exposed through NetStats. They
	// are observations like wall clock, never model inputs: the
	// deterministic statistics are bit-identical with or without drops.
	reconnects   atomic.Int64
	resentFrames atomic.Int64
	resentBytes  atomic.Int64

	tr atomic.Pointer[trace.Recorder] // timeline recorder; nil = off
}

// peerConn is one persistent pairwise connection: the live socket (nil
// while disconnected), the outgoing resend ring, and the incoming
// delivered sequence. It survives reconnects — only c/w/gen change.
//
// Nothing ever blocks on the socket while holding mu: all socket writes —
// data, standalone acks, reconnect replay — happen in the pair's single
// writer goroutine (writerLoop) with the lock released. Holding mu across
// a blocking write deadlocks head-to-head exchanges: each side's writer
// would stall on a full send buffer while its reader needs the same lock
// to fold the peer's acks (which is what would drain the peer's send
// buffer).
type peerConn struct {
	e      *Endpoint
	peer   int
	dialer bool   // this side redials after a drop (peer < own rank)
	addr   string // peer's listen address, for redials

	mu         sync.Mutex
	cond       *sync.Cond // wakes senders: ring drained, or pair failed
	condW      *sync.Cond // wakes the writer: work pending, conn adopted, or failed
	c          net.Conn   // nil while disconnected
	w          *bufio.Writer
	gen        int  // bumped per adopted connection; stale errors are ignored
	connecting bool // a reconnect attempt is under way
	failed      bool
	flushing    bool // Close's flush phase is waiting for this pair to quiesce
	goodbyeSent bool // our goodbye control frame made it onto the wire
	departed    bool // peer announced a clean staged shutdown (goodbye received)
	budget     int           // remaining reconnects
	waitRedial chan struct{} // closed by adopt; arms the acceptor-side timeout

	// Outgoing direction (guarded by mu). The ring holds every frame from
	// ackedSeq+1 to nextSeq-1 in order; sendCursor is the next frame the
	// writer will put on the current connection (adopt rewinds it to
	// ackedSeq+1, which is what replays the unacknowledged suffix).
	nextSeq    uint64 // sequence of the next data frame (first frame = 1)
	ackedSeq   uint64 // highest sequence cumulatively acked by the peer
	sendCursor uint64 // next sequence the writer puts on the wire
	ring       []ringFrame
	ringBytes  int
	ackedOut   uint64 // delivered value most recently written to the peer

	// inFlightSeq marks the frame the writer is currently putting on the
	// wire with mu released. If an ack trims that frame meanwhile, its
	// buffer is parked in orphan instead of returned to the pool — the
	// writer is still reading it — and the writer releases it afterwards.
	inFlightSeq uint64
	orphan      []byte

	// Incoming direction. delivered is written by the reader goroutine and
	// read by the writer for ack piggybacking and by reconnect handshakes.
	delivered atomic.Uint64

	// Armed fault injections (transport.ConnDropper). drop is the trap the
	// writer fires next; traps armed while it is live wait in queued and
	// fire one per cut, in arming order. dropMu orders arming against the
	// writer's hand-over, so no armed drop is ever lost.
	drop   atomic.Pointer[dropTrap]
	dropMu sync.Mutex
	queued []*dropTrap
}

type ringFrame struct {
	seq  uint64
	tag  int
	data []byte
}

// dropTrap is an armed ConnDropper fault: the connection is cut after the
// next remaining bytes written to this peer.
type dropTrap struct {
	remaining int64
}

func newPeerConn(e *Endpoint, peer int, addr string) *peerConn {
	pc := &peerConn{
		e:      e,
		peer:   peer,
		dialer: peer < e.rank,
		addr:   addr,
		budget: e.cfg.maxReconnects(),
		// Data frames are numbered from 1; sequence 0 is the pure-ack frame.
		nextSeq:    1,
		sendCursor: 1,
	}
	pc.cond = sync.NewCond(&pc.mu)
	pc.condW = sync.NewCond(&pc.mu)
	return pc
}

// trapWriter sits between the framed bufio.Writer and the socket and
// fires an armed dropTrap: it truncates the write after the trap's
// remaining bytes, closes the connection, and returns an error — the same
// observable failure as a network cut mid-frame. Writes are serialized by
// the pair's single writer goroutine, so the trap needs no further
// locking beyond the atomic pointer.
type trapWriter struct {
	pc *peerConn
	c  net.Conn
}

func (tw trapWriter) Write(p []byte) (int, error) {
	if t := tw.pc.drop.Load(); t != nil {
		if int64(len(p)) >= t.remaining {
			tw.pc.nextTrap()
			n := int(t.remaining)
			if n > 0 {
				tw.c.Write(p[:n])
			}
			tw.c.Close()
			return n, errors.New("transport/tcp: injected connection drop")
		}
		t.remaining -= int64(len(p))
	}
	return tw.c.Write(p)
}

// nextTrap retires the fired trap and arms the next queued one.
func (pc *peerConn) nextTrap() {
	pc.dropMu.Lock()
	var next *dropTrap
	if len(pc.queued) > 0 {
		next = pc.queued[0]
		pc.queued = pc.queued[1:]
	}
	pc.drop.Store(next)
	pc.dropMu.Unlock()
}

// Connect joins the fabric described by peers as the given rank: it binds a
// listener on peers[rank], establishes the pairwise mesh, and returns when
// every connection is up. peers must be identical (including order) on
// every rank; its length is the fabric size. This is the SPMD entry point —
// one call per OS process.
func Connect(rank int, peers []string) (*Endpoint, error) {
	return ConnectConfig(rank, peers, Config{})
}

// ConnectConfig is Connect with explicit tuning.
func ConnectConfig(rank int, peers []string, cfg Config) (*Endpoint, error) {
	if len(peers) == 0 {
		return nil, errors.New("transport/tcp: empty peer table")
	}
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("transport/tcp: rank %d out of range (P=%d)", rank, len(peers))
	}
	ln, err := net.Listen("tcp", peers[rank])
	if err != nil {
		return nil, fmt.Errorf("transport/tcp: rank %d: bind %s: %w", rank, peers[rank], err)
	}
	return connect(ln, rank, peers, cfg)
}

// identified is one accepted connection mapped to its peer rank.
type identified struct {
	rank int
	conn net.Conn
}

// connect establishes the mesh over an already-bound listener.
func connect(ln net.Listener, rank int, peers []string, cfg Config) (*Endpoint, error) {
	p := len(peers)
	timeout := cfg.RendezvousTimeout
	if timeout == 0 {
		timeout = defaultRendezvous
	}
	deadline := time.Now().Add(timeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	e := &Endpoint{
		rank:  rank,
		p:     p,
		cfg:   cfg,
		conns: make([]*peerConn, p),
		boxes: make([]*transport.Mailbox, p),
		ln:    ln,
		done:  make(chan struct{}),
	}
	for i := range e.boxes {
		e.boxes[i] = transport.NewMailbox()
		if i != rank {
			e.conns[i] = newPeerConn(e, i, peers[i])
		}
	}

	// The accept loop runs for the endpoint's whole lifetime: during the
	// rendezvous it funnels identified initial handshakes to the collector
	// below; afterwards it adopts reconnect handshakes.
	idCh := make(chan identified)
	acceptErrCh := make(chan error, 1)
	e.workers.Add(1)
	go e.acceptLoop(ln, deadline, idCh, acceptErrCh)

	var acceptErr error
	accepted := make(chan struct{})     // closed when the accept side is done
	acceptFailed := make(chan struct{}) // closed only on accept failure; aborts dial retries
	go func() {
		defer close(accepted)
		acceptErr = e.collectPeers(idCh, acceptErrCh)
		if acceptErr != nil {
			close(acceptFailed)
		}
	}()
	dialErr := e.dialPeers(peers, deadline, acceptFailed)
	if dialErr != nil {
		ln.Close() // abort a blocked Accept
	}
	<-accepted
	if dialErr != nil || acceptErr != nil {
		e.Close()
		// Surface the root cause: whichever side failed first made the
		// other side fail by aborting it.
		if dialErr != nil && !errors.Is(dialErr, errRendezvousAborted) {
			return nil, dialErr
		}
		if acceptErr != nil {
			return nil, acceptErr
		}
		return nil, dialErr
	}
	e.rendezvoused.Store(true)
	// The listener outlives the rendezvous — it is where peers reconnect —
	// so the rendezvous deadline must come off it.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	for _, pc := range e.conns {
		if pc != nil {
			pc := pc
			e.spawn(pc.writerLoop)
		}
	}
	return e, nil
}

// spawn starts a worker goroutine tracked by the endpoint's WaitGroup,
// unless teardown has begun. The mutex serializes the closing check with
// the Add so Close's Wait cannot race a late spawn.
func (e *Endpoint) spawn(f func()) bool {
	e.spawnMu.Lock()
	defer e.spawnMu.Unlock()
	if e.closing.Load() {
		return false
	}
	e.workers.Add(1)
	go func() {
		defer e.workers.Done()
		f()
	}()
	return true
}

// acceptLoop accepts connections for the endpoint's lifetime. Handshakes
// run concurrently, one goroutine per accepted connection, so a stranger
// that connects and then stalls mid-handshake cannot delay the rendezvous
// or a reconnect: the loop keeps accepting while the stalled handshake
// waits out its deadline in the background.
func (e *Endpoint) acceptLoop(ln net.Listener, rendezvousDeadline time.Time, idCh chan<- identified, acceptErrCh chan<- error) {
	defer e.workers.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !e.rendezvoused.Load() && !e.closing.Load() {
				select {
				case acceptErrCh <- err:
				default:
				}
			}
			return
		}
		go e.handleAccept(conn, rendezvousDeadline, idCh)
	}
}

// handleAccept performs the acceptor side of one handshake: read the
// dialer's hello, reply with ours, then either funnel the identified
// connection to the rendezvous collector or adopt it as a reconnect.
// Strangers and stale probes are dropped silently without consuming a peer
// slot.
func (e *Endpoint) handleAccept(conn net.Conn, rendezvousDeadline time.Time, idCh chan<- identified) {
	deadline := rendezvousDeadline
	if e.rendezvoused.Load() {
		deadline = time.Now().Add(e.cfg.reconnectTimeout())
	}
	conn.SetDeadline(deadline)
	h, err := readHello(conn, e.p)
	if err != nil || h.rank <= e.rank || h.rank >= e.p {
		conn.Close()
		return
	}
	// The reply carries OUR delivered sequence for that peer, which on a
	// reconnect tells the dialer which ring suffix to resend. A
	// misconfigured dialer (wrong fabric size, wrong protocol) also sees
	// the mismatch in this reply and fails fast on its side.
	if err := writeHello(conn, e.rank, e.p, h.flags&flagReconnect, e.conns[h.rank].delivered.Load()); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	if h.flags&flagReconnect != 0 {
		if !e.rendezvoused.Load() {
			conn.Close() // reconnect before the mesh exists: stale probe
			return
		}
		e.conns[h.rank].adopt(conn, h.delivered, true)
		return
	}
	if e.rendezvoused.Load() {
		conn.Close() // fresh initial handshake after the rendezvous: stranger
		return
	}
	select {
	case idCh <- identified{rank: h.rank, conn: conn}:
	case <-e.done:
		conn.Close()
	}
}

// collectPeers waits for one identified initial connection from every
// higher rank, funneled in by the accept loop.
func (e *Endpoint) collectPeers(idCh <-chan identified, acceptErrCh <-chan error) error {
	remaining := e.p - 1 - e.rank
	got := make([]bool, e.p)
	for remaining > 0 {
		select {
		case id := <-idCh:
			if got[id.rank] {
				id.conn.Close()
				return fmt.Errorf("transport/tcp: rank %d: duplicate handshake from rank %d", e.rank, id.rank)
			}
			got[id.rank] = true
			e.conns[id.rank].adopt(id.conn, 0, false)
			remaining--
		case err := <-acceptErrCh:
			return fmt.Errorf("transport/tcp: rank %d: accept: %w", e.rank, err)
		}
	}
	return nil
}

// dialPeers connects to every lower rank, retrying until the peer's
// listener is reachable, the rendezvous deadline expires, or the accept
// side fails (abort closes).
func (e *Endpoint) dialPeers(peers []string, deadline time.Time, abort <-chan struct{}) error {
	for r := 0; r < e.rank; r++ {
		conn, peerDelivered, err := e.dialPeer(r, peers[r], deadline, abort, 0)
		if err != nil {
			return err
		}
		e.conns[r].adopt(conn, peerDelivered, false)
	}
	return nil
}

// dialPeer dials one lower-ranked peer, treating transient connect
// failures (connection refused, host momentarily unreachable, a listener
// backlog overflow) as "not up yet" and retrying with bounded exponential
// backoff until the deadline. Only handshake mismatches that redialing
// cannot cure (errFatalHandshake) and an abort from the accept side fail
// immediately. flags selects the initial vs reconnect handshake; the
// peer's delivered sequence from its reply hello is returned alongside the
// connection.
func (e *Endpoint) dialPeer(r int, addr string, deadline time.Time, abort <-chan struct{}, flags byte) (net.Conn, uint64, error) {
	var lastErr error
	backoff := dialBackoffMin
	var delivered uint64
	if flags&flagReconnect != 0 {
		delivered = e.conns[r].delivered.Load()
	}
	for time.Now().Before(deadline) {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			conn.SetDeadline(deadline)
			err = writeHello(conn, e.rank, e.p, flags, delivered)
			var h hello
			if err == nil {
				h, err = readHello(conn, e.p)
			}
			if err == nil {
				if h.rank != r {
					conn.Close()
					return nil, 0, fmt.Errorf("transport/tcp: rank %d: peer at %s identifies as rank %d, want %d",
						e.rank, addr, h.rank, r)
				}
				conn.SetDeadline(time.Time{})
				return conn, h.delivered, nil
			}
			conn.Close()
			// Redialing cannot cure a protocol or peer-table mismatch.
			if errors.Is(err, errFatalHandshake) {
				return nil, 0, fmt.Errorf("transport/tcp: rank %d: handshake with rank %d at %s: %w",
					e.rank, r, addr, err)
			}
			// A connection that handshook partially (e.g. the peer died
			// mid-hello) is worth a quick retry: reset the backoff, the
			// peer was demonstrably reachable a moment ago.
			backoff = dialBackoffMin
		}
		lastErr = err
		select {
		case <-abort:
			return nil, 0, fmt.Errorf("transport/tcp: rank %d: %w", e.rank, errRendezvousAborted)
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
	return nil, 0, fmt.Errorf("transport/tcp: rank %d: rendezvous with rank %d at %s timed out: %w",
		e.rank, r, addr, lastErr)
}

// hello is one parsed handshake message.
type hello struct {
	rank      int
	flags     byte
	delivered uint64
}

func writeHello(c net.Conn, rank, p int, flags byte, delivered uint64) error {
	var b [handshakeLen]byte
	binary.LittleEndian.PutUint32(b[0:4], handshakeMagic)
	b[4] = protocolVersion
	b[5] = flags
	binary.LittleEndian.PutUint32(b[6:10], uint32(rank))
	binary.LittleEndian.PutUint32(b[10:14], uint32(p))
	binary.LittleEndian.PutUint64(b[14:22], delivered)
	_, err := c.Write(b[:])
	return err
}

// errRendezvousAborted marks a dial loop stopped because the accept side
// failed first; the accept error is the root cause then.
var errRendezvousAborted = errors.New("rendezvous aborted")

// errFatalHandshake marks handshake failures that redialing cannot cure
// (protocol or configuration mismatches, as opposed to a peer that is not
// up yet); the dial retry loop fails fast on them.
var errFatalHandshake = errors.New("fatal handshake mismatch")

func readHello(c net.Conn, wantP int) (hello, error) {
	var b [handshakeLen]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return hello{}, err
	}
	if binary.LittleEndian.Uint32(b[0:4]) != handshakeMagic {
		return hello{}, fmt.Errorf("%w: bad magic", errFatalHandshake)
	}
	if b[4] != protocolVersion {
		return hello{}, fmt.Errorf("%w: protocol version %d, want %d", errFatalHandshake, b[4], protocolVersion)
	}
	if p := int(binary.LittleEndian.Uint32(b[10:14])); p != wantP {
		return hello{}, fmt.Errorf("%w: peer believes P=%d, want %d", errFatalHandshake, p, wantP)
	}
	return hello{
		rank:      int(binary.LittleEndian.Uint32(b[6:10])),
		flags:     b[5],
		delivered: binary.LittleEndian.Uint64(b[14:22]),
	}, nil
}

// adopt installs a (re)established connection on the pair: trim the resend
// ring by the peer's delivered sequence, rewind the writer's cursor so it
// replays the rest in order, wake blocked senders and the writer, and
// start a fresh reader. Both sides of a reconnect run adopt — each
// direction replays its own unacknowledged suffix.
func (pc *peerConn) adopt(conn net.Conn, peerDelivered uint64, isReconnect bool) {
	e := pc.e
	pc.mu.Lock()
	if pc.failed || e.closing.Load() {
		pc.mu.Unlock()
		conn.Close()
		return
	}
	if pc.c != nil {
		// A replacement raced the old connection's death detection on this
		// side; the peer has already abandoned the old one, so trust the
		// newcomer and let the old reader's error fall into the stale-gen
		// path below.
		pc.c.Close()
	}
	pc.c = conn
	pc.w = bufio.NewWriterSize(trapWriter{pc: pc, c: conn}, 64<<10)
	pc.gen++
	gen := pc.gen
	pc.connecting = false
	if pc.waitRedial != nil {
		close(pc.waitRedial)
		pc.waitRedial = nil
	}
	pc.trimRingLocked(peerDelivered)
	// Everything still in the ring is unacknowledged: replay it all on the
	// fresh connection (the receiver discards what did survive the old
	// one). The suffix length IS the resend volume — counted here, whether
	// or not an individual frame ever fully made it onto the old socket.
	pc.sendCursor = pc.ackedSeq + 1
	resent := int64(len(pc.ring))
	resentBytes := int64(pc.ringBytes)
	pc.cond.Broadcast()
	pc.condW.Broadcast()
	pc.mu.Unlock()
	if isReconnect {
		e.reconnects.Add(1)
		e.resentFrames.Add(resent)
		e.resentBytes.Add(resentBytes)
		e.tr.Load().Instant(trace.TrackControl, "net-reconnect", int64(pc.peer), resent)
	}
	e.spawn(func() { e.readLoop(pc.peer, pc, conn, gen) })
}

// trimRingLocked drops ring frames the peer has cumulatively acknowledged
// and wakes senders blocked on a full ring. Acks beyond what was ever sent
// (a corrupt header) are clamped — robustness, not trust. A frame the
// writer is putting on the wire right now is parked for the writer to
// release instead of returned to the pool, so the pool can never hand its
// bytes to a new owner mid-write.
func (pc *peerConn) trimRingLocked(ack uint64) {
	if ack >= pc.nextSeq {
		ack = pc.nextSeq - 1
	}
	if ack <= pc.ackedSeq {
		return
	}
	drop := int(ack - pc.ackedSeq)
	if drop > len(pc.ring) {
		drop = len(pc.ring)
	}
	for i := 0; i < drop; i++ {
		f := pc.ring[i]
		pc.ringBytes -= len(f.data)
		if f.seq == pc.inFlightSeq {
			pc.orphan = f.data
		} else {
			pc.e.pool.Put(f.data)
		}
		pc.ring[i].data = nil
	}
	pc.ring = append(pc.ring[:0], pc.ring[drop:]...)
	pc.ackedSeq = ack
	if pc.sendCursor <= ack {
		pc.sendCursor = ack + 1
	}
	pc.cond.Broadcast()
	if pc.flushing {
		// The ack that empties the ring is what makes the goodbye due:
		// wake the writer so the flush phase can finish.
		pc.condW.Signal()
	}
}

// writeFrame puts one frame — seq 0 is a pure ack — on the wire. Called
// only from the pair's writer goroutine, with mu released: a blocking
// socket write must never hold the pair's lock.
func writeFrame(w *bufio.Writer, seq, ack uint64, tag int, data []byte) error {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint64(hdr[8:16], ack)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(int64(tag)))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(data)))
	_, err := w.Write(hdr[:])
	if err == nil && len(data) > 0 {
		_, err = w.Write(data)
	}
	if err == nil {
		err = w.Flush()
	}
	return err
}

// connError reports a dead connection from a goroutine that does not hold
// the pair's lock.
func (pc *peerConn) connError(gen int, err error) {
	pc.mu.Lock()
	pc.connErrorLocked(gen, err)
	pc.mu.Unlock()
}

// connErrorLocked handles a connection failure: ignore it if it concerns a
// superseded connection or a reconnect is already under way, otherwise tear
// the socket down and start recovery — the original dialer redials, the
// acceptor arms a timeout and waits for the peer's redial. An exhausted
// reconnect budget fails the endpoint permanently.
func (pc *peerConn) connErrorLocked(gen int, err error) {
	e := pc.e
	if pc.failed || e.closing.Load() || gen != pc.gen {
		return
	}
	if pc.c != nil {
		pc.c.Close()
		pc.c = nil
		pc.w = nil
	}
	if pc.connecting {
		return
	}
	// The peer announced a staged shutdown with a goodbye frame before
	// this connection died: the death IS the shutdown, not a fault. Park
	// the pair quietly — no reconnect, no budget spent, no error. An EOF
	// without a preceding goodbye takes the recovery path like any other
	// failure (a cut exactly at a frame boundary looks identical).
	if pc.departed {
		return
	}
	e.tr.Load().Instant(trace.TrackControl, "net-drop", int64(pc.peer), 0)
	if pc.budget <= 0 {
		pc.failLocked(fmt.Errorf("transport/tcp: rank %d: connection to rank %d lost and reconnect budget exhausted: %w",
			e.rank, pc.peer, err))
		return
	}
	pc.budget--
	pc.connecting = true
	if pc.dialer {
		e.spawn(pc.redial)
	} else {
		waitCh := make(chan struct{})
		pc.waitRedial = waitCh
		e.spawn(func() { pc.awaitRedial(waitCh) })
	}
}

// failLocked marks the pair dead, records the endpoint's first error, and
// schedules the endpoint-wide teardown (asynchronously — teardown takes
// every pair's lock, including the one held here).
func (pc *peerConn) failLocked(err error) {
	pc.failed = true
	pc.cond.Broadcast()
	pc.condW.Broadcast()
	e := pc.e
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
	go e.teardown()
}

// redial re-establishes the connection this side originally dialed,
// reusing the rendezvous dial backoff under the reconnect timeout.
func (pc *peerConn) redial() {
	e := pc.e
	deadline := time.Now().Add(e.cfg.reconnectTimeout())
	conn, peerDelivered, err := e.dialPeer(pc.peer, pc.addr, deadline, e.done, flagReconnect)
	if err != nil {
		if e.closing.Load() {
			return
		}
		pc.mu.Lock()
		pc.failLocked(fmt.Errorf("transport/tcp: rank %d: reconnect to rank %d failed: %w", e.rank, pc.peer, err))
		pc.mu.Unlock()
		return
	}
	pc.adopt(conn, peerDelivered, true)
}

// awaitRedial is the acceptor side of a reconnect: the peer redials us
// (the accept loop adopts it and closes waitCh); if it never arrives
// within the reconnect timeout, the endpoint fails.
func (pc *peerConn) awaitRedial(waitCh <-chan struct{}) {
	e := pc.e
	select {
	case <-waitCh:
	case <-e.done:
	case <-time.After(e.cfg.reconnectTimeout()):
		pc.mu.Lock()
		if !pc.failed && pc.connecting && !e.closing.Load() {
			pc.failLocked(fmt.Errorf("transport/tcp: rank %d: rank %d did not reconnect within %v",
				e.rank, pc.peer, e.cfg.reconnectTimeout()))
		}
		pc.mu.Unlock()
	}
}

// writerLoop is the pair's single socket writer: it drains the resend
// ring from sendCursor in sequence order and emits standalone cumulative
// acks when the incoming direction has delivered frames the outgoing
// direction has not acknowledged yet (data frames piggyback the ack for
// free). The socket write itself runs with mu released; a frame on the
// wire is pinned via inFlightSeq so a concurrent ack cannot recycle its
// buffer. Send never touches the socket — it appends to the ring and
// wakes this loop — so a PE can never wedge inside a blocking write while
// its reader needs the pair's lock.
// goodbyeDueLocked reports that the writer should announce the staged
// shutdown: Close is flushing, both directions are fully quiescent, and
// the goodbye has not been written on a surviving connection yet.
func (pc *peerConn) goodbyeDueLocked() bool {
	return pc.flushing && !pc.goodbyeSent && !pc.departed &&
		pc.sendCursor == pc.nextSeq && pc.ackedSeq == pc.nextSeq-1 &&
		pc.delivered.Load() == pc.ackedOut
}

func (pc *peerConn) writerLoop() {
	e := pc.e
	for {
		pc.mu.Lock()
		for {
			if pc.failed || e.closing.Load() {
				pc.mu.Unlock()
				return
			}
			if pc.c != nil && !pc.connecting &&
				(pc.sendCursor < pc.nextSeq || pc.delivered.Load() != pc.ackedOut ||
					pc.goodbyeDueLocked()) {
				break
			}
			pc.condW.Wait()
		}
		gen := pc.gen
		w := pc.w
		ack := pc.delivered.Load()
		var seq uint64
		var tag int
		var data []byte
		if pc.sendCursor < pc.nextSeq {
			f := pc.ring[int(pc.sendCursor-pc.ackedSeq-1)]
			seq, tag, data = f.seq, f.tag, f.data
			pc.inFlightSeq = seq
		} else if pc.goodbyeDueLocked() {
			// Both directions are quiescent and Close is flushing: announce
			// the staged shutdown. The goodbye is regenerated rather than
			// ringed — if the connection dies before it lands, the replay
			// after reconnect re-arms it.
			seq = seqGoodbye
		}
		pc.mu.Unlock()

		err := writeFrame(w, seq, ack, tag, data)

		pc.mu.Lock()
		if pc.inFlightSeq != 0 {
			pc.inFlightSeq = 0
		}
		if pc.orphan != nil {
			e.pool.Put(pc.orphan)
			pc.orphan = nil
		}
		if gen == pc.gen {
			if err != nil {
				pc.connErrorLocked(gen, err)
			} else {
				if ack > pc.ackedOut {
					pc.ackedOut = ack
				}
				if seq == seqGoodbye {
					pc.goodbyeSent = true
				} else if seq != 0 && seq+1 > pc.sendCursor {
					pc.sendCursor = seq + 1
				}
				if pc.flushing {
					// Close's flush phase waits on cond for ackedOut to
					// catch up with delivered and for the goodbye to land;
					// ack progress (ackedSeq) broadcasts via
					// trimRingLocked already.
					pc.cond.Broadcast()
				}
			}
		}
		// On a stale generation the write raced a reconnect: adopt already
		// rewound the cursor, and whatever this write put on the old socket
		// is either lost or discarded as a duplicate by the receiver.
		pc.mu.Unlock()
	}
}

// readLoop drains frames from one adopted connection into the peer's
// mailbox until the connection dies, then reports the error for recovery.
// Unlike protocol v1 it never closes the mailbox itself: transient
// connection loss must not fail receivers, and permanent failure closes
// every mailbox through the endpoint-wide teardown with the cause
// recorded.
func (e *Endpoint) readLoop(src int, pc *peerConn, c net.Conn, gen int) {
	err := e.readFrames(src, pc, gen, bufio.NewReaderSize(c, 64<<10))
	pc.connError(gen, err)
}

// readFrames validates and delivers frames from one connection's byte
// stream until it errors. Every malformed header — oversized length,
// payload on an ack, a sequence gap — is a connection error returned to
// the caller, never a panic: the fuzz suite drives this function with
// arbitrary bytes. gen is the generation of the connection being read.
func (e *Endpoint) readFrames(src int, pc *peerConn, gen int, br *bufio.Reader) error {
	var hdr [headerLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		ack := binary.LittleEndian.Uint64(hdr[8:16])
		tag := int(int64(binary.LittleEndian.Uint64(hdr[16:24])))
		n := int64(binary.LittleEndian.Uint32(hdr[24:28]))
		if n > maxPayload {
			return fmt.Errorf("frame length %d exceeds limit", n)
		}
		pc.ackReceived(ack)
		if seq == seqGoodbye {
			if n != 0 {
				return fmt.Errorf("goodbye frame carries %d payload bytes", n)
			}
			// The peer has flushed and is about to close the connection
			// for good. Park the pair so the imminent EOF is not treated
			// as a fault, and wake anything blocked on it.
			pc.mu.Lock()
			pc.departed = true
			pc.cond.Broadcast()
			pc.condW.Broadcast()
			pc.mu.Unlock()
			continue
		}
		if seq == 0 {
			if n != 0 {
				return fmt.Errorf("ack frame carries %d payload bytes", n)
			}
			continue
		}
		delivered := pc.delivered.Load()
		if seq <= delivered {
			// A replayed duplicate: the resend suffix can overlap what
			// already arrived when the ack for it was lost with the old
			// connection. Consume and drop — delivery stays idempotent.
			if _, err := io.CopyN(io.Discard, br, n); err != nil {
				return err
			}
			continue
		}
		if seq != delivered+1 {
			return fmt.Errorf("sequence gap: frame %d after delivered %d", seq, delivered)
		}
		// Read the payload. For large frames the first chunk is read
		// before the full buffer is allocated, so a corrupt header
		// claiming gigabytes costs nothing when the stream cannot back it
		// up.
		buf, err := e.readPayload(br, int(n))
		if err != nil {
			return err
		}
		if !pc.deliver(e.boxes[src], gen, seq, tag, buf) {
			e.pool.Put(buf)
			return fmt.Errorf("frame %d arrived on a superseded connection", seq)
		}
	}
}

// deliver hands one received frame to the mailbox and advances the
// delivered sequence, atomically under mu and only for the pair's current
// connection. After a reconnect the superseded connection's reader can
// still be parsing frames out of its buffer while the replacement's
// reader receives the same frames again from the peer's replay; without
// the generation check the two would race on delivered, delivering a
// frame twice and rolling delivered back behind an acknowledged frame —
// a permanent sequence gap. It reports false to a stale reader, which
// must stop. It also wakes the writer so the delivery is acknowledged
// even when no reverse-direction data frame is around to piggyback on
// (the writer coalesces bursts into one cumulative ack); no one holds mu
// across a blocking operation, so the reader is never stalled by it.
func (pc *peerConn) deliver(box *transport.Mailbox, gen int, seq uint64, tag int, buf []byte) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if gen != pc.gen || seq != pc.delivered.Load()+1 {
		return false
	}
	box.Push(tag, buf)
	pc.delivered.Store(seq)
	pc.condW.Signal()
	return true
}

// readPayload reads one payload of n bytes into a pooled buffer,
// probing the first 64 KiB before committing to a large allocation.
func (e *Endpoint) readPayload(br *bufio.Reader, n int) ([]byte, error) {
	const probe = 64 << 10
	if n <= probe {
		buf := e.pool.Get(n)
		if _, err := io.ReadFull(br, buf); err != nil {
			e.pool.Put(buf)
			return nil, err
		}
		return buf, nil
	}
	head := e.pool.Get(probe)
	if _, err := io.ReadFull(br, head); err != nil {
		e.pool.Put(head)
		return nil, err
	}
	buf := e.pool.Get(n)
	copy(buf, head)
	e.pool.Put(head)
	if _, err := io.ReadFull(br, buf[probe:]); err != nil {
		e.pool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// ackReceived folds a cumulative ack from any incoming frame into the
// outgoing ring.
func (pc *peerConn) ackReceived(ack uint64) {
	pc.mu.Lock()
	pc.trimRingLocked(ack)
	pc.mu.Unlock()
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// P returns the fabric size.
func (e *Endpoint) P() int { return e.p }

// BindTrace installs a timeline recorder: connection drops and reconnects
// appear as net-drop / net-reconnect instants on the control track. Bound
// by the comm layer (through the decorators); nil keeps it off. The
// recorder is concurrency-safe, so reader and reconnect goroutines record
// directly.
func (e *Endpoint) BindTrace(tr *trace.Recorder) { e.tr.Store(tr) }

// NetStats reports the endpoint's failure-recovery counters: connections
// re-established, and frames/bytes replayed from the resend ring. They are
// measurements (like wall clock), not model inputs — resent frames are
// never re-billed by the accounting above.
func (e *Endpoint) NetStats() (reconnects, resentFrames, resentBytes int64) {
	return e.reconnects.Load(), e.resentFrames.Load(), e.resentBytes.Load()
}

// DropConn implements transport.ConnDropper: it arms a one-shot trap that
// truncates the next write to peer after afterBytes bytes and cuts the
// connection — fault injection for the chaos decorator and the tests. A
// trap armed while an earlier one has not fired yet waits for it: every
// armed drop cuts the connection exactly once.
func (e *Endpoint) DropConn(peer int, afterBytes int) bool {
	if peer < 0 || peer >= e.p || peer == e.rank {
		return false
	}
	pc := e.conns[peer]
	t := &dropTrap{remaining: int64(afterBytes)}
	pc.dropMu.Lock()
	if pc.drop.Load() == nil {
		pc.drop.Store(t)
	} else {
		pc.queued = append(pc.queued, t)
	}
	pc.dropMu.Unlock()
	return true
}

// lastErr describes the endpoint's recorded failure for panic messages.
func (e *Endpoint) lastErr() string {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if e.firstErr != nil {
		return e.firstErr.Error()
	}
	return "endpoint closed"
}

// Send appends one frame to dst's resend ring and writes it to the live
// connection (or short-circuits self-sends through the local mailbox). The
// payload is copied before Send returns, so the caller retains ownership
// of data; the copy stays in the ring until the peer acknowledges
// delivery. A full ring blocks until acks drain it; a disconnected pair
// parks the frame in the ring for the reconnect to replay.
func (e *Endpoint) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= e.p {
		panic(fmt.Sprintf("transport/tcp: send to invalid rank %d (P=%d)", dst, e.p))
	}
	if len(data) > maxPayload {
		panic(fmt.Sprintf("transport/tcp: payload of %d bytes exceeds frame limit", len(data)))
	}
	if dst == e.rank {
		cp := e.pool.Get(len(data))
		copy(cp, data)
		e.boxes[dst].Push(tag, cp)
		return
	}
	pc := e.conns[dst]
	pc.mu.Lock()
	for pc.ringFullLocked(len(data)) && !pc.failed && !pc.departed {
		pc.cond.Wait()
	}
	if pc.failed || pc.departed {
		departed := pc.departed && !pc.failed
		pc.mu.Unlock()
		if departed {
			// The peer completed a clean staged shutdown: everything both
			// sides sent was delivered and acknowledged before it closed.
			// A later send means the two sides disagree about the
			// communication schedule — fail loudly, not with a timeout.
			panic(fmt.Sprintf("transport/tcp: rank %d: send to %d: peer closed its endpoint after a clean shutdown", e.rank, dst))
		}
		panic(fmt.Sprintf("transport/tcp: rank %d: send to %d failed: %s", e.rank, dst, e.lastErr()))
	}
	cp := e.pool.Get(len(data))
	copy(cp, data)
	seq := pc.nextSeq
	pc.nextSeq++
	pc.ring = append(pc.ring, ringFrame{seq: seq, tag: tag, data: cp})
	pc.ringBytes += len(cp)
	pc.condW.Signal()
	pc.mu.Unlock()
}

// ringFullLocked reports whether admitting a frame of n payload bytes
// would overflow the resend ring. A lone oversized frame is admitted when
// the ring is empty, so frames near the byte bound cannot wedge.
func (pc *peerConn) ringFullLocked(n int) bool {
	if len(pc.ring) >= maxRingFrames {
		return true
	}
	return len(pc.ring) > 0 && pc.ringBytes+n > maxRingBytes
}

// Recv blocks until a message with the given tag arrives from src.
func (e *Endpoint) Recv(src, tag int) []byte {
	if src < 0 || src >= e.p {
		panic(fmt.Sprintf("transport/tcp: recv from invalid rank %d (P=%d)", src, e.p))
	}
	data, ok := e.boxes[src].Pop(tag)
	if !ok {
		panic(fmt.Sprintf("transport/tcp: rank %d: connection to rank %d lost while receiving tag %d: %s",
			e.rank, src, tag, e.lastErr()))
	}
	return data
}

// RecvAny blocks until a message with the given tag is available from any
// of the listed sources and returns it with its source rank and delivery
// time.
func (e *Endpoint) RecvAny(srcs []int, tag int) (int, []byte, time.Time) {
	if len(srcs) == 0 {
		panic("transport/tcp: RecvAny needs at least one source")
	}
	boxes := make([]*transport.Mailbox, len(srcs))
	for i, src := range srcs {
		if src < 0 || src >= e.p {
			panic(fmt.Sprintf("transport/tcp: recv from invalid rank %d (P=%d)", src, e.p))
		}
		boxes[i] = e.boxes[src]
	}
	i, data, arrived, ok := transport.PopAny(boxes, tag)
	if !ok {
		panic(fmt.Sprintf("transport/tcp: rank %d: connection to rank %d lost while receiving tag %d: %s",
			e.rank, srcs[i], tag, e.lastErr()))
	}
	return srcs[i], data, arrived
}

// Release returns payload buffers to the endpoint's pool; future incoming
// frames reuse them.
func (e *Endpoint) Release(bufs ...[]byte) {
	for _, b := range bufs {
		e.pool.Put(b)
	}
}

// teardown closes the listener, every connection and every mailbox and
// unblocks all internal goroutines and blocked senders/receivers. Called
// by Close and — with the first error already recorded — when recovery is
// exhausted. Pending mailbox messages stay receivable.
func (e *Endpoint) teardown() {
	e.tdOnce.Do(func() {
		e.spawnMu.Lock()
		e.closing.Store(true)
		e.spawnMu.Unlock()
		close(e.done)
		if e.ln != nil {
			e.ln.Close()
		}
		for _, pc := range e.conns {
			if pc == nil {
				continue
			}
			pc.mu.Lock()
			if pc.c != nil {
				pc.c.Close()
				pc.c = nil
			}
			pc.failed = true
			pc.cond.Broadcast()
			pc.condW.Broadcast()
			pc.mu.Unlock()
		}
		for _, b := range e.boxes {
			b.Close()
		}
	})
}

// flush blocks until every pair's outgoing direction is quiescent — all
// data frames acknowledged by the peer and every delivered frame acked
// back — or the reconnect timeout expires. Close runs it before teardown:
// the writer is asynchronous (Send only posts to the resend ring), so a
// rank can reach Close with its final frames still unwritten or unacked —
// in an SPMD run a collective completes on the sender as soon as the
// frames are posted, while slower ranks still need them. The listener and
// all recovery machinery stay live throughout, so a connection that drops
// mid-flush is redialed and the unacked suffix replayed as usual.
func (e *Endpoint) flush() {
	if e.closing.Load() {
		return
	}
	deadline := time.Now().Add(e.cfg.reconnectTimeout())
	for _, pc := range e.conns {
		if pc != nil {
			pc.flushOut(deadline)
		}
	}
}

// flushOut is one pair's share of Close's flush phase. sync.Cond has no
// timed wait, so the deadline is enforced by a timer that broadcasts the
// condition the loop re-checks.
func (pc *peerConn) flushOut(deadline time.Time) {
	timer := time.AfterFunc(time.Until(deadline), func() {
		pc.mu.Lock()
		pc.cond.Broadcast()
		pc.mu.Unlock()
	})
	defer timer.Stop()
	e := pc.e
	pc.mu.Lock()
	pc.flushing = true
	pc.condW.Signal()
	for !pc.failed && !pc.departed && !pc.goodbyeSent {
		if pc.c == nil && !pc.connecting {
			// No live connection and no recovery under way — a pair that
			// never rendezvoused (recovery that gave up sets failed,
			// handled above). Nothing can make progress; don't burn the
			// deadline on it.
			break
		}
		if !time.Now().Before(deadline) {
			// Undelivered data at the deadline is a real loss — record it
			// so Close's return value surfaces it. Unreturned acks alone
			// are not: the peer merely keeps a fully-delivered suffix in
			// its ring a little longer.
			if pc.ackedSeq != pc.nextSeq-1 {
				err := fmt.Errorf("transport/tcp: rank %d: close: %d frames to rank %d still unacknowledged after %v",
					e.rank, pc.nextSeq-1-pc.ackedSeq, pc.peer, e.cfg.reconnectTimeout())
				e.errMu.Lock()
				if e.firstErr == nil {
					e.firstErr = err
				}
				e.errMu.Unlock()
			}
			break
		}
		pc.cond.Wait()
	}
	if pc.departed && pc.ackedSeq != pc.nextSeq-1 {
		// The peer finished its own staged shutdown while we still had
		// undelivered frames for it: the two sides disagree about the
		// communication schedule. Surface it through Close.
		err := fmt.Errorf("transport/tcp: rank %d: close: rank %d shut down with %d frames still undelivered",
			e.rank, pc.peer, pc.nextSeq-1-pc.ackedSeq)
		e.errMu.Lock()
		if e.firstErr == nil {
			e.firstErr = err
		}
		e.errMu.Unlock()
	}
	pc.mu.Unlock()
}

// Close flushes the outgoing direction of every pair (see flush), then
// tears down the listener and every connection, waits for the internal
// goroutines to drain, and closes the mailboxes. Idempotent. It returns
// the first connection-level failure the endpoint recorded — a reader
// that hit a decode error, an exhausted reconnect budget, an unflushable
// pair — so a run's exit status surfaces transport failures instead of
// dropping them.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.flush()
		e.teardown()
		e.workers.Wait()
	})
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// fabric holds all endpoints of an in-process TCP mesh.
type fabric struct {
	eps []*Endpoint
}

// NewLoopback builds a p-endpoint fabric on automatically chosen loopback
// ports — real sockets, one process. This is how Sort runs over TCP and how
// the conformance suite exercises the backend.
func NewLoopback(p int) (transport.Fabric, error) {
	return NewLoopbackConfig(p, Config{})
}

// NewLoopbackConfig is NewLoopback with explicit tuning.
func NewLoopbackConfig(p int, cfg Config) (transport.Fabric, error) {
	if p <= 0 {
		return nil, errors.New("transport/tcp: fabric needs at least one PE")
	}
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return NewFabricConfig(addrs, cfg)
}

// NewFabric binds one endpoint per address in the calling process and
// connects them into a full mesh. Addresses should carry an explicit host;
// port 0 picks an ephemeral port.
func NewFabric(addrs []string) (transport.Fabric, error) {
	return NewFabricConfig(addrs, Config{})
}

// NewFabricConfig is NewFabric with explicit tuning.
func NewFabricConfig(addrs []string, cfg Config) (transport.Fabric, error) {
	p := len(addrs)
	if p == 0 {
		return nil, errors.New("transport/tcp: empty address list")
	}
	lns := make([]net.Listener, p)
	bound := make([]string, p)
	for i, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("transport/tcp: bind %s: %w", a, err)
		}
		lns[i] = ln
		bound[i] = ln.Addr().String()
	}
	eps := make([]*Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = connect(lns[r], r, bound, cfg)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, err
	}
	return &fabric{eps: eps}, nil
}

// P returns the number of endpoints.
func (f *fabric) P() int { return len(f.eps) }

// Endpoint returns the endpoint of the given rank.
func (f *fabric) Endpoint(rank int) transport.Transport { return f.eps[rank] }

// Close tears down every endpoint. It returns the first recorded
// connection-level failure, like Endpoint.Close.
func (f *fabric) Close() error {
	var err error
	for _, ep := range f.eps {
		err = errors.Join(err, ep.Close())
	}
	return err
}
