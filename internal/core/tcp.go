package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/frame"
)

// Framed TCP binding for SOAP-bin. The paper attributes SOAP-bin's gap
// against Sun RPC "mainly to SOAP-bin's use of HTTP for its transactions";
// for the high-performance mode's internal back-end communications no
// HTTP semantics are needed, so envelopes travel over persistent,
// multiplexed TCP connections instead. There is one protocol on the
// port. A client opens with a 5-byte handshake, "SBQM" + version, and
// the server closes any connection that opens with anything else. After
// the handshake both directions carry internal/frame frames whose
// payload starts with a fixed header:
//
//	request:  u32 BE length | u64 BE id | u8 wire code |
//	          u16 BE action length | action | envelope bytes
//	response: u32 BE length | u64 BE id | u8 wire code | envelope bytes
//
// (XML wires need the action; the binary envelope carries its own op.)
//
// A connection carries many calls at once: every frame is tagged with a
// correlation ID, the server dispatches requests concurrently, and the
// client's per-connection reader routes responses — in whatever order
// they return — to their waiting callers. TCPPoolTransport (tcpmux.go)
// spreads calls over up to N such connections.
//
// Cancellation abandons, never corrupts: a caller whose context ends
// deregisters its correlation ID and returns immediately; the response,
// whenever it arrives, is read whole (keeping the stream framed) and
// dropped. An I/O error tears a connection down — a write that fails
// partway has corrupted the stream — and every call pending on it is
// woken with the error. An expired deadline, which cannot tell a slow
// peer from a silent connection, retires it instead: no new calls, and
// the last pending call to leave closes it (see muxConn.retired).
//
// Buffers: frame.Read hands each frame body to exactly one owner. The
// server's owner is the request goroutine, which releases the body once
// Process has returned; the client's is the caller that registered the
// ID, or the reader itself when that caller has gone.

const (
	tcpWireBinary     = 1
	tcpWireXML        = 2
	tcpWireXMLDeflate = 3

	maxTCPFrame = 256 << 20

	muxVersion = 1
	muxHdr     = frame.LenSize + 8 + 1 // length prefix + id + wire code
)

// muxHello is the client handshake.
var muxHello = [5]byte{'S', 'B', 'Q', 'M', muxVersion}

func wireToCode(ct string) (byte, error) {
	switch ct {
	case ContentTypeBinary:
		return tcpWireBinary, nil
	case ContentTypeXML, "text/xml":
		return tcpWireXML, nil
	case ContentTypeXMLDeflate:
		return tcpWireXMLDeflate, nil
	default:
		return 0, fmt.Errorf("core: unsupported content type %q", ct)
	}
}

func codeToWire(code byte) (string, error) {
	switch code {
	case tcpWireBinary:
		return ContentTypeBinary, nil
	case tcpWireXML:
		return ContentTypeXML, nil
	case tcpWireXMLDeflate:
		return ContentTypeXMLDeflate, nil
	default:
		return "", fmt.Errorf("core: unknown wire code %d", code)
	}
}

// Processor handles one serialized envelope and always answers with one
// — failures become fault envelopes, never errors. It is the surface the
// TCP listener serves: *Server implements it by dispatching to handlers,
// and the front router implements it by forwarding the raw envelope to a
// backend, without re-encoding.
//
// The returned body is owned by the caller and may be recycled with
// bufpool.Put once written.
type Processor interface {
	Process(ctx context.Context, contentType, action string, body []byte) (respContentType string, respBody []byte)
}

var _ Processor = (*Server)(nil)

// TCPListener serves a Processor over the framed TCP protocol.
type TCPListener struct {
	proc   Processor
	ctx    context.Context // parent of every request's context
	cancel context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// ServeTCP binds addr and dispatches framed envelopes to proc until
// Close. It returns once the listener is bound.
func ServeTCP(proc Processor, addr string) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: tcp listen: %w", err)
	}
	return ServeTCPListener(proc, ln), nil
}

// ServeTCPListener dispatches framed envelopes from an already-bound
// listener — the hook for wrapping the accept path with netem
// throttling or fault injection before the processor sees a connection.
func ServeTCPListener(proc Processor, ln net.Listener) *TCPListener {
	//lint:ignore ctxfirst the listener owns this root; Close cancels it for every in-flight request
	ctx, cancel := context.WithCancel(context.Background())
	l := &TCPListener{proc: proc, ctx: ctx, cancel: cancel, listener: ln, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				conn.Close()
				return
			}
			l.conns[conn] = struct{}{}
			l.mu.Unlock()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				l.serveConn(conn)
			}()
		}
	}()
	return l
}

// Addr returns the bound address.
func (l *TCPListener) Addr() string {
	return l.listener.Addr().String()
}

// Close stops the listener and closes live connections.
func (l *TCPListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cancel() // unblocks in-flight handlers watching their context
	l.listener.Close()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return nil
}

// serveConn handles one connection: handshake, then requests dispatched
// concurrently (that is the pipelining) with responses serialized on a
// write lock. The connection's lifetime bounds its handlers. Any
// malformed input — wrong handshake, bad length, short action, unknown
// wire code — closes the connection without a reply.
func (l *TCPListener) serveConn(conn net.Conn) {
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	var hello [len(muxHello)]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil || hello != muxHello {
		return
	}
	var hdr [muxHdr]byte // one scratch header per connection, reused by every read
	for {
		payload, err := frame.Read(conn, hdr[:], maxTCPFrame)
		if err != nil {
			return
		}
		id := binary.BigEndian.Uint64(hdr[frame.LenSize:])
		ct, err := codeToWire(hdr[muxHdr-1])
		if err != nil || len(payload) < 2 {
			bufpool.Put(payload)
			return
		}
		alen := int(binary.BigEndian.Uint16(payload))
		if len(payload)-2 < alen {
			bufpool.Put(payload)
			return
		}
		action := string(payload[2 : 2+alen])
		body := payload[2+alen:]
		wg.Add(1)
		go func() {
			defer wg.Done()
			respCT, respBody := l.proc.Process(l.ctx, ct, action, body)
			bufpool.Put(payload) // body's backing buffer; Process is done with it
			defer bufpool.Put(respBody)
			respCode, err := wireToCode(respCT)
			if err != nil {
				return
			}
			var rh [muxHdr]byte
			binary.BigEndian.PutUint64(rh[frame.LenSize:], id)
			rh[muxHdr-1] = respCode
			wmu.Lock()
			err = frame.Write(conn, rh[:], respBody, maxTCPFrame)
			wmu.Unlock()
			if err != nil {
				conn.Close() // partial response frame: stream corrupt
			}
		}()
	}
}

// ctxTimeout attributes a transport failure to the context when the
// context is what ended the exchange. The connection deadline is derived
// from ctx, but the poller's timer can fire a hair before the context's
// own timer flips Err() non-nil — without this, a raw "i/o timeout"
// escapes as a retriable transport error when the call's budget is what
// actually expired.
func ctxTimeout(ctx context.Context, err error) error {
	if ce := ctx.Err(); ce != nil {
		return ce
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			return context.DeadlineExceeded
		}
	}
	return nil
}

// ProbeTCP performs one active health-check round trip against a
// SOAP-bin TCP endpoint: dial a fresh connection, handshake, send a
// minimal XML request (empty action — the server answers it with a
// Client fault envelope) and wait for its response frame. A healthy
// endpoint completes the whole exchange; a dead one fails the dial, and
// a gray-failed one — accepting connections but never answering (the
// blackhole fault) — fails the wait when ctx ends. Any well-formed
// response frame, fault included, counts as healthy: the probe tests the
// request path, not the application.
func ProbeTCP(ctx context.Context, addr string) error {
	m, err := dialMux(ctx, addr)
	if err != nil {
		return fmt.Errorf("core: probe: %w", err)
	}
	defer m.fail(errMuxClosed) // an orderly close, not a connection failure
	r, _, err := m.call(ctx, tcpWireXML, "", nil)
	if err != nil {
		if ce := ctxTimeout(ctx, err); ce != nil {
			err = ce
		}
		return fmt.Errorf("core: probe: %w", err)
	}
	bufpool.Put(r.body)
	return nil
}
