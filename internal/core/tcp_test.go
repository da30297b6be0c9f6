package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"soapbinq/internal/pbio"
)

func TestTCPListenerCloseIdempotent(t *testing.T) {
	fs := pbio.NewMemServer()
	srv := NewServer(testService(), pbio.NewCodec(pbio.NewRegistry(fs)))
	ln, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPListenerRejectsForeignOpening covers the one-protocol rule: a
// connection whose first bytes are not the SBQM handshake at the
// supported version is closed without a single reply byte. The first
// case is a well-formed request of the retired single-connection
// framing (u32 length | wire code | u16 action length | body).
func TestTCPListenerRejectsForeignOpening(t *testing.T) {
	ln := newMuxRig(t, WireXML, 1).ln
	for name, opening := range map[string][]byte{
		"retired legacy frame": {0, 0, 0, 3, tcpWireXML, 0, 0},
		"bad magic":            []byte("SBQX\x01"),
		"bad version":          []byte("SBQM\x02"),
		"http":                 []byte("POST /soap HTTP/1.1\r\n\r\n"),
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(opening); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// The close arrives as EOF, or as a reset when the server
			// closed with part of the opening still unread.
			reply, err := io.ReadAll(conn)
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatalf("connection not closed by the server: %v", err)
			}
			if len(reply) != 0 {
				t.Fatalf("server replied %q to a foreign opening", reply)
			}
		})
	}
}

// scriptConn is a net.Conn that reads a fixed script and then EOF.
type scriptConn struct {
	net.Conn // nil: any method the server side is not expected to call panics
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// echoProcessor answers every envelope with its own body.
type echoProcessor struct{}

func (echoProcessor) Process(_ context.Context, ct, _ string, body []byte) (string, []byte) {
	return ct, append([]byte(nil), body...)
}

// FuzzMuxServerConn feeds arbitrary bytes to the server side of one
// connection — handshake and request parsing: whatever arrives (a bad
// version, a short action length, an oversize frame length) the
// connection loop must return without panicking or hanging, and a
// connection that never completed the handshake must get no reply.
func FuzzMuxServerConn(f *testing.F) {
	request := func(id byte, code byte, action string, body string) []byte {
		b := []byte{0, 0, 0, byte(9 + 2 + len(action) + len(body)), 0, 0, 0, 0, 0, 0, 0, id, code, 0, byte(len(action))}
		return append(append(b, action...), body...)
	}
	hello := string(muxHello[:])
	f.Add([]byte(hello + string(request(1, tcpWireXML, "urn:echo", "<x/>")) + string(request(2, tcpWireBinary, "", "bin"))))
	f.Add([]byte(hello))
	f.Add([]byte("SBQM\x02" + string(request(1, tcpWireXML, "", ""))))                    // bad version
	f.Add([]byte(hello + "\x00\x00\x00\x0b\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00\x09")) // action length past the frame
	f.Add([]byte(hello + "\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00"))     // no room for the action length
	f.Add([]byte(hello + "\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x01\x02"))         // oversize frame length
	f.Add([]byte(hello + "\x00\x00\x00\x0b\x00\x00\x00\x00\x00\x00\x00\x01\x09\x00\x00")) // unknown wire code
	f.Add([]byte(hello + "\x00\x00\x00\x03\x00\x00\x00"))                                 // length below the header
	f.Add([]byte{0, 0, 0, 3, tcpWireXML, 0, 0})                                           // retired legacy frame

	f.Fuzz(func(t *testing.T, data []byte) {
		l := &TCPListener{proc: echoProcessor{}, ctx: context.Background(), conns: make(map[net.Conn]struct{})}
		conn := &scriptConn{in: bytes.NewReader(data)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.serveConn(conn)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn hung")
		}
		if !bytes.HasPrefix(data, muxHello[:]) && conn.out.Len() != 0 {
			t.Fatalf("replied %d bytes without a handshake", conn.out.Len())
		}
	})
}
