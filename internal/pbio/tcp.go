package pbio

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/frame"
)

// TCP format-server protocol. Both directions carry internal/frame
// frames whose payload starts with a one-byte header, the op:
//
//	u32 big-endian length | 1-byte op | payload
//
// Requests: opRegister carries a type descriptor; opLookup carries an
// 8-byte format ID. Replies: opFormatID carries an 8-byte ID, opDescriptor
// a type descriptor, opError a UTF-8 message.
const (
	opRegister   = 'R'
	opLookup     = 'L'
	opFormatID   = 'F'
	opDescriptor = 'D'
	opError      = 'E'

	maxFrame = 1 << 20 // descriptors are small; anything bigger is hostile

	// roundTripTimeout bounds one format-server round trip, dial
	// included. Registration and lookup happen once per type, on the
	// first Marshal or Unmarshal that meets it; without a bound a
	// blackholed format server would hang that call forever.
	roundTripTimeout = 10 * time.Second
)

// TCPServer serves format registrations and lookups over TCP, backed by a
// MemServer. Start it with ListenAndServe or Serve; Close stops it.
type TCPServer struct {
	store *MemServer

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewTCPServer returns a TCP format server around the given store. A nil
// store gets a fresh MemServer.
func NewTCPServer(store *MemServer) *TCPServer {
	if store == nil {
		store = NewMemServer()
	}
	return &TCPServer{store: store, conns: make(map[net.Conn]struct{})}
}

// Store exposes the backing MemServer (e.g. for stats assertions).
func (s *TCPServer) Store() *MemServer { return s.store }

// ListenAndServe binds addr (e.g. "127.0.0.1:0") and serves until Close.
// It returns once the listener is bound; serving continues in background
// goroutines. Addr() reports the bound address.
func (s *TCPServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pbio: format server listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("pbio: format server already closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return nil
}

// Addr returns the bound listener address, or "" before ListenAndServe.
func (s *TCPServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener, closes live connections, and waits for the
// serving goroutines to exit.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var hdr [frame.LenSize + 1]byte
	for {
		payload, err := frame.Read(conn, hdr[:], maxFrame)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		var reply []byte
		switch op := hdr[frame.LenSize]; op {
		case opRegister:
			reply = handleRegisterFrame(s.store, payload)
		case opLookup:
			reply = handleLookupFrame(s.store, payload)
		default:
			reply = errorFrame(fmt.Sprintf("unknown op %q", op))
		}
		bufpool.Put(payload) // the handlers copy what they keep
		if err := frame.Write(conn, hdr[:frame.LenSize], reply, maxFrame); err != nil {
			return
		}
	}
}

func errorFrame(msg string) []byte {
	return append([]byte{opError}, msg...)
}

// TCPClient is a Server implementation that forwards registrations and
// lookups to a remote TCPServer over a single persistent connection.
// It is safe for concurrent use; requests are serialized on the wire,
// and each round trip is bounded by roundTripTimeout.
type TCPClient struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
}

// NewTCPClient returns a client of the format server at addr. The
// connection is established lazily on first use and re-established once
// per request after a transport error.
func NewTCPClient(addr string) *TCPClient {
	return &TCPClient{addr: addr}
}

// Register implements Server.
//
//lint:ignore ctxfirst the Server interface fixes the signature; roundTripTimeout bounds the exchange
func (c *TCPClient) Register(f *Format) (*Format, error) {
	if f == nil || f.Type == nil {
		return nil, fmt.Errorf("pbio: register nil format")
	}
	op, payload, err := c.roundTrip(AppendDescriptor([]byte{opRegister}, f.Type))
	if err != nil {
		return nil, err
	}
	defer bufpool.Put(payload)
	switch op {
	case opFormatID:
		if len(payload) != 8 {
			return nil, fmt.Errorf("pbio: malformed register reply")
		}
		if id := readID(payload); id != f.ID {
			return nil, fmt.Errorf("pbio: server assigned ID %#x, expected %#x", id, f.ID)
		}
		return f, nil
	case opError:
		return nil, fmt.Errorf("pbio: format server: %s", payload)
	default:
		return nil, fmt.Errorf("pbio: unexpected reply op %q", op)
	}
}

// Lookup implements Server.
//
//lint:ignore ctxfirst the Server interface fixes the signature; roundTripTimeout bounds the exchange
func (c *TCPClient) Lookup(id uint64) (*Format, error) {
	op, payload, err := c.roundTrip(appendID([]byte{opLookup}, id))
	if err != nil {
		return nil, err
	}
	defer bufpool.Put(payload)
	switch op {
	case opDescriptor:
		t, err := ParseDescriptor(payload)
		if err != nil {
			return nil, err
		}
		return NewFormat(t)
	case opError:
		return nil, fmt.Errorf("%w: %s", ErrUnknownFormat, payload)
	default:
		return nil, fmt.Errorf("pbio: unexpected reply op %q", op)
	}
}

// Close drops the persistent connection.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropConn()
}

// dropConn closes and forgets the connection (holding c.mu).
func (c *TCPClient) dropConn() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// roundTrip sends one request (op byte first) and returns the reply's op
// and payload; the payload is a pooled buffer the caller owns. A stale
// persistent connection gets one reconnect: registration and lookup are
// idempotent, so sending twice is harmless.
func (c *TCPClient) roundTrip(req []byte) (op byte, payload []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := time.Now().Add(roundTripTimeout)
	for attempt := 0; attempt < 2; attempt++ {
		if op, payload, err = c.tryOnce(req, deadline); err == nil {
			return op, payload, nil
		}
		c.dropConn() // possibly mid-frame
	}
	return 0, nil, err
}

func (c *TCPClient) tryOnce(req []byte, deadline time.Time) (byte, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, time.Until(deadline))
		if err != nil {
			return 0, nil, fmt.Errorf("pbio: dial format server: %w", err)
		}
		c.conn = conn
	}
	c.conn.SetDeadline(deadline)
	var hdr [frame.LenSize + 1]byte
	if err := frame.Write(c.conn, hdr[:frame.LenSize], req, maxFrame); err != nil {
		return 0, nil, err
	}
	payload, err := frame.Read(c.conn, hdr[:], maxFrame)
	return hdr[frame.LenSize], payload, err
}

var _ Server = (*TCPClient)(nil)
