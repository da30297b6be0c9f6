package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/frame"
	"soapbinq/internal/soap"
)

// Client side of the framed TCP protocol (see tcp.go for the wire
// format): muxConn is one multiplexed connection, TCPPoolTransport a
// pool of them.

var (
	// errMuxClosed reports a call on a closed pool. It is also what an
	// orderly teardown fails a connection with, so it does not count as
	// a connection failure.
	errMuxClosed = errors.New("core: tcp pool closed")
	// errMuxRetired is the fate of a connection on which a call's
	// deadline expired (see muxConn.retired).
	errMuxRetired = errors.New("core: tcp connection retired after a call deadline")
)

// muxReply carries one response (or the connection's fatal error) to the
// caller that registered its correlation ID.
type muxReply struct {
	code byte
	body []byte
	err  error
}

// muxConn is one multiplexed connection: concurrent callers register a
// correlation ID, write their frame (serialized on wmu), and wait; the
// reader goroutine routes response frames back by ID.
type muxConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes whole-frame writes

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	nextID  uint64
	dead    error // non-nil once the connection has failed
	// retired is set when a call's deadline expires on the connection.
	// The caller cannot tell a slow peer from a connection that went
	// silent (a blackhole accepts writes forever), so the connection
	// takes no new calls and is closed when the calls already pending
	// on it have left: nobody else's call is hurt, and a silent
	// connection costs one call budget, not every later call's.
	retired bool

	inflight atomic.Int64 // registered, unanswered calls (checkout load metric)
}

// dialMux connects and performs the client handshake.
func dialMux(ctx context.Context, addr string) (*muxConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: tcp dial: %w", err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetWriteDeadline(deadline)
	}
	if _, err := conn.Write(muxHello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("core: mux handshake: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	tcpDials.Inc()
	muxConns.Add(1)
	m := &muxConn{conn: conn, pending: make(map[uint64]chan muxReply)}
	go m.readLoop()
	return m, nil
}

// readLoop dispatches response frames by correlation ID until the
// connection dies. Responses for abandoned IDs are dropped whole, which
// is what keeps cancellation from corrupting the stream.
func (m *muxConn) readLoop() {
	var hdr [muxHdr]byte // one scratch header per connection, reused by every read
	for {
		body, err := frame.Read(m.conn, hdr[:], maxTCPFrame)
		if err != nil {
			m.fail(err)
			return
		}
		id, code := binary.BigEndian.Uint64(hdr[frame.LenSize:]), hdr[muxHdr-1]
		m.mu.Lock()
		ch, ok := m.pending[id]
		delete(m.pending, id)
		drained := m.retired && len(m.pending) == 0
		m.mu.Unlock()
		if ok {
			ch <- muxReply{code: code, body: body} // buffered; never blocks
		} else {
			bufpool.Put(body) // abandoned call: drop the late response
		}
		if drained {
			m.fail(errMuxRetired)
			return
		}
	}
}

// fail marks the connection dead and wakes every pending caller.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = err
		muxConns.Add(-1)
		if !errors.Is(err, errMuxClosed) {
			muxConnFailures.Inc()
		}
	}
	waiters := m.pending
	m.pending = make(map[uint64]chan muxReply)
	m.mu.Unlock()
	m.conn.Close()
	for _, ch := range waiters {
		ch <- muxReply{err: err}
	}
}

// unusable reports whether the connection takes no new calls: it has
// been failed or retired.
func (m *muxConn) unusable() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead != nil || m.retired
}

// call performs one correlated exchange. When the context ends the call
// is abandoned: the ID is deregistered, the caller returns ctx.Err(),
// and the calls of the connection's other users go on; an expired
// deadline also retires the connection. sent reports whether the
// request frame went out whole: an error with sent false means the peer
// provably never saw the request (the connection was already dead or
// retired, or the write itself failed), so it may be sent again
// elsewhere without risking a second execution.
func (m *muxConn) call(ctx context.Context, code byte, action string, body []byte) (r muxReply, sent bool, err error) {
	ch := make(chan muxReply, 1)
	m.mu.Lock()
	if err = m.dead; err == nil && m.retired {
		err = errMuxRetired
	}
	if err != nil {
		m.mu.Unlock()
		return muxReply{}, false, err
	}
	m.nextID++
	id := m.nextID
	m.pending[id] = ch
	m.mu.Unlock()
	m.inflight.Add(1)
	muxInflight.Add(1)
	defer func() {
		m.inflight.Add(-1)
		muxInflight.Add(-1)
	}()

	if err = m.writeRequest(ctx, id, code, action, body); err != nil {
		// A partial frame corrupts the outbound stream for everyone:
		// fail the whole connection, not just this call.
		m.fail(err)
		m.forget(id, ch, false)
		return muxReply{}, false, err
	}
	select {
	case r = <-ch:
		return r, true, r.err
	case <-ctx.Done():
		m.forget(id, ch, errors.Is(ctx.Err(), context.DeadlineExceeded))
		return muxReply{}, true, ctx.Err()
	}
}

// forget deregisters an ID whose caller gave up on ch; a reply that
// already raced into the channel is released. retire marks the
// connection retired, and whoever takes the last pending call off a
// retired connection closes it.
func (m *muxConn) forget(id uint64, ch chan muxReply, retire bool) {
	m.mu.Lock()
	_, ok := m.pending[id]
	delete(m.pending, id)
	m.retired = m.retired || retire
	drained := m.retired && len(m.pending) == 0
	m.mu.Unlock()
	if !ok {
		// The reader already delivered; drain so the buffer is released.
		select {
		case r := <-ch:
			bufpool.Put(r.body)
		default:
		}
	}
	if drained {
		m.fail(errMuxRetired)
	}
}

// writeRequest frames and writes one request under the write lock. A
// caller deadline becomes the write deadline so a stalled peer cannot
// hold the lock past the caller's budget.
func (m *muxConn) writeRequest(ctx context.Context, id uint64, code byte, action string, body []byte) error {
	if len(action) > 0xFFFF {
		return errors.New("core: action too long")
	}
	hdr := bufpool.Get(muxHdr + 2 + len(action))[:frame.LenSize]
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	hdr = append(hdr, code)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(action)))
	hdr = append(hdr, action...)

	m.wmu.Lock()
	defer m.wmu.Unlock()
	defer bufpool.Put(hdr)
	if deadline, ok := ctx.Deadline(); ok {
		m.conn.SetWriteDeadline(deadline)
	} else {
		m.conn.SetWriteDeadline(time.Time{})
	}
	return frame.Write(m.conn, hdr, body, maxTCPFrame)
}

// TCPPoolTransport is a Transport over a pool of multiplexed TCP
// connections: up to Conns connections per endpoint, each carrying many
// concurrent correlated calls. Checkout is health-aware — dead and
// retired connections are skipped and redialed on demand, live ones are
// picked by lowest in-flight load — and composes with the client-level
// circuit breaker, which sees dial failures and timeouts exactly as it
// does on any other transport.
//
// Safe for concurrent use.
type TCPPoolTransport struct {
	addr string
	size int

	// leases counts RoundTrips between admission and completion. It is
	// taken BEFORE checkout consults the draining flag (both ordered by
	// mu), so Drain — which flips the flag, then waits for leases to hit
	// zero — can never close the pool under a call that was admitted but
	// has not yet registered its stream on a connection.
	leases atomic.Int64

	mu       sync.Mutex
	conns    []*muxConn
	closed   bool
	draining bool
}

// NewTCPPoolTransport returns a pooled transport for the SOAP-bin TCP
// endpoint at addr, dialing lazily. conns is clamped to at least 1;
// 4 is a reasonable default for backend fan-in.
func NewTCPPoolTransport(addr string, conns int) *TCPPoolTransport {
	if conns < 1 {
		conns = 1
	}
	return &TCPPoolTransport{addr: addr, size: conns, conns: make([]*muxConn, conns)}
}

// Close fails every pooled connection; calls pending on them are woken
// with an error. (A retired connection has left the pool: its calls end
// with their own replies or contexts.)
func (t *TCPPoolTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := make([]*muxConn, len(t.conns))
	copy(conns, t.conns)
	t.mu.Unlock()
	for _, m := range conns {
		if m != nil {
			m.fail(errMuxClosed)
		}
	}
	return nil
}

// Drain gracefully retires the pool, mirroring Server.Shutdown: new
// checkouts fail immediately with a Server.Unavailable.Draining fault
// (so concurrent callers fail over instead of blocking until the mux
// closes), in-flight correlated calls run to completion, and the
// connections are closed once the pool is idle. If ctx ends first the
// pool is closed anyway — pending calls are woken with an error — and
// ctx's error is returned.
func (t *TCPPoolTransport) Drain(ctx context.Context) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.draining = true
	t.mu.Unlock()

	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if t.leases.Load() == 0 {
			return t.Close()
		}
		select {
		case <-ctx.Done():
			t.Close()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Draining reports whether Drain has been called.
func (t *TCPPoolTransport) Draining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining && !t.closed
}

// checkout returns a live connection: the least-loaded of the live
// slots, or a fresh dial into the first empty/dead slot while the pool
// is not yet full. Dialing happens outside the pool lock; a lost dial
// race simply yields a connection that is closed again.
func (t *TCPPoolTransport) checkout(ctx context.Context) (*muxConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errMuxClosed
	}
	if t.draining {
		// Refuse immediately with an unavailable-family fault: the caller
		// (a router, a retrying client) fails over elsewhere instead of
		// blocking until the pool finishes draining.
		t.mu.Unlock()
		return nil, soap.DrainingFault(0)
	}
	var best *muxConn
	empty := -1
	for i, m := range t.conns {
		if m == nil || m.unusable() {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if best == nil || m.inflight.Load() < best.inflight.Load() {
			best = m
		}
	}
	t.mu.Unlock()

	if empty < 0 {
		return best, nil
	}
	// Fill the pool: concurrency only spreads across connections that
	// exist. Dial failures fall back to a live connection when one exists.
	m, err := dialMux(ctx, t.addr)
	if err != nil {
		if best != nil {
			return best, nil
		}
		return nil, err
	}
	t.mu.Lock()
	if t.closed || t.draining {
		// The pool closed or entered drain while we were dialing; the
		// fresh connection must not admit a call the drain would then
		// have to wait out.
		draining := t.draining
		t.mu.Unlock()
		m.fail(errMuxClosed)
		if draining {
			return nil, soap.DrainingFault(0)
		}
		return nil, errMuxClosed
	}
	if old := t.conns[empty]; old == nil || old.unusable() {
		t.conns[empty] = m
		t.mu.Unlock()
		return m, nil
	}
	// Another caller filled the slot first; use ours anyway and let the
	// pool keep the winner.
	t.mu.Unlock()
	m.fail(errMuxClosed)
	if best != nil {
		return best, nil
	}
	return t.checkout(ctx)
}

// RoundTrip implements Transport. The transport itself sends a request
// again, once and on a fresh connection, only when the first attempt
// provably never reached the peer — the checked-out connection was
// already dead or retired, or the frame write failed. An error after
// the frame went out is returned as it is: whether the operation ran is
// unknown, and sending again is the caller's decision (CallPolicy and
// front apply the idempotency rule). A done context is final and
// surfaces the context's own error.
func (t *TCPPoolTransport) RoundTrip(ctx context.Context, req *WireRequest) (*WireResponse, error) {
	code, err := wireToCode(req.ContentType)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.leases.Add(1)
	defer t.leases.Add(-1)
	for attempt := 0; ; attempt++ {
		m, err := t.checkout(ctx)
		if err != nil {
			return nil, err
		}
		r, sent, err := m.call(ctx, code, req.Action, req.Body)
		if err == nil {
			ct, cerr := codeToWire(r.code)
			if cerr != nil {
				return nil, cerr
			}
			return &WireResponse{ContentType: ct, Body: r.body}, nil
		}
		if ce := ctxTimeout(ctx, err); ce != nil {
			return nil, ce
		}
		if sent || attempt > 0 {
			return nil, err
		}
	}
}

// PooledResponseBodies implements PooledBodyTransport: response bodies
// come from frame.Read's pooled buffers and are owned by the caller.
func (t *TCPPoolTransport) PooledResponseBodies() bool { return true }

var (
	_ Transport           = (*TCPPoolTransport)(nil)
	_ PooledBodyTransport = (*TCPPoolTransport)(nil)
)
