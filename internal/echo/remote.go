package echo

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/frame"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
)

// Remote event delivery: ECho channels exposed over TCP, so sinks in
// other processes (the paper's display clients and service portals) can
// subscribe. Events travel as PBIO payloads; the channel's type
// descriptor is sent once at subscription time — the same
// register-once/cache pattern as the format server.
//
// Frames are internal/frame frames with a one-byte header — u32
// big-endian length + 1-byte op + payload:
//
//	subscriber → bridge:  opSubscribe + channel name
//	bridge → subscriber:  opAccept + type descriptor, then a stream of
//	                      opEvent + PBIO payload frames
//	                      opRemoteError + message on failure

const (
	opSubscribe   = 'S'
	opAccept      = 'O'
	opEvent       = 'V'
	opRemoteError = 'E'

	maxEventFrame = 256 << 20
)

// BridgeServer exposes the channels of a Domain to remote subscribers.
type BridgeServer struct {
	domain *Domain

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewBridgeServer creates a bridge over a domain.
func NewBridgeServer(domain *Domain) *BridgeServer {
	return &BridgeServer{domain: domain, conns: make(map[net.Conn]struct{})}
}

// ListenAndServe binds addr and accepts remote subscribers until Close.
func (b *BridgeServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("echo: bridge listen: %w", err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ln.Close()
		return errors.New("echo: bridge closed")
	}
	b.listener = ln
	b.mu.Unlock()

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			b.mu.Lock()
			if b.closed {
				b.mu.Unlock()
				conn.Close()
				return
			}
			b.conns[conn] = struct{}{}
			b.mu.Unlock()
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				b.serveConn(conn)
			}()
		}
	}()
	return nil
}

// Addr returns the bound address.
func (b *BridgeServer) Addr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.listener == nil {
		return ""
	}
	return b.listener.Addr().String()
}

// Close stops the bridge and disconnects subscribers.
func (b *BridgeServer) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	if b.listener != nil {
		b.listener.Close()
	}
	for c := range b.conns {
		c.Close()
	}
	b.mu.Unlock()
	b.wg.Wait()
	return nil
}

func (b *BridgeServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		b.mu.Lock()
		delete(b.conns, conn)
		b.mu.Unlock()
	}()

	op, payload, err := readBridgeFrame(conn)
	if err != nil || op != opSubscribe {
		return
	}
	name := string(payload)
	ch, ok := b.domain.Open(name)
	if !ok {
		writeBridgeFrame(conn, opRemoteError, []byte(fmt.Sprintf("no such channel %q", name)))
		return
	}

	// Accept: ship the channel's type descriptor once.
	if err := writeBridgeFrame(conn, opAccept, pbio.AppendDescriptor(nil, ch.Type())); err != nil {
		return
	}

	// Encode events against a private registry (descriptor already sent;
	// payloads go header-less).
	codec := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer()))
	var writeMu sync.Mutex
	connDead := make(chan struct{})
	var dead sync.Once

	cancel, err := ch.Subscribe(nil, func(ev idl.Value) {
		body, err := codec.EncodeBody(ev)
		if err != nil {
			return
		}
		writeMu.Lock()
		werr := writeBridgeFrame(conn, opEvent, body)
		writeMu.Unlock()
		if werr != nil {
			dead.Do(func() { close(connDead) })
		}
	})
	if err != nil {
		writeBridgeFrame(conn, opRemoteError, []byte(err.Error()))
		return
	}
	defer cancel()

	// Block until the subscriber goes away (reads nothing further) or a
	// write fails. A read returning is the disconnect signal.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		var buf [1]byte
		conn.Read(buf[:])
	}()
	select {
	case <-connDead:
	case <-readDone:
	}
}

// SubscribeRemote connects to a bridge and subscribes to a channel; every
// received event invokes handler. The returned cancel closes the
// connection and waits for the receive loop to exit.
func SubscribeRemote(addr, channel string, handler HandlerFunc) (cancel func(), err error) {
	if handler == nil {
		return nil, fmt.Errorf("echo: nil handler")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("echo: dial bridge: %w", err)
	}
	if err := writeBridgeFrame(conn, opSubscribe, []byte(channel)); err != nil {
		conn.Close()
		return nil, err
	}
	op, payload, err := readBridgeFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("echo: subscribe: %w", err)
	}
	switch op {
	case opAccept:
	case opRemoteError:
		conn.Close()
		return nil, fmt.Errorf("echo: bridge: %s", payload)
	default:
		conn.Close()
		return nil, fmt.Errorf("echo: unexpected reply op %q", op)
	}
	typ, err := pbio.ParseDescriptor(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("echo: channel descriptor: %w", err)
	}

	codec := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer()))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			op, payload, err := readBridgeFrame(conn)
			if err != nil || op != opEvent {
				return
			}
			// Events are encoded little-endian by the bridge's Go codec.
			ev, err := codec.DecodeBody(payload, typ, false)
			bufpool.Put(payload) // decoded values hold no reference into it
			if err != nil {
				return
			}
			handler(ev)
		}
	}()

	var once sync.Once
	return func() {
		once.Do(func() {
			conn.Close()
			<-done
		})
	}, nil
}

func writeBridgeFrame(w io.Writer, op byte, payload []byte) error {
	hdr := [frame.LenSize + 1]byte{frame.LenSize: op}
	return frame.Write(w, hdr[:], payload, maxEventFrame)
}

// readBridgeFrame reads one frame; the payload is a pooled buffer the
// caller owns (bufpool rules: Put it once its contents are copied out,
// or leave it to the collector).
func readBridgeFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frame.LenSize + 1]byte
	payload, err := frame.Read(r, hdr[:], maxEventFrame)
	return hdr[frame.LenSize], payload, err
}
