package pbio

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/frame"
	"soapbinq/internal/workload"
)

func startServer(t *testing.T) (*TCPServer, string) {
	t.Helper()
	srv := NewTCPServer(nil)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

func TestTCPRegisterAndLookup(t *testing.T) {
	_, addr := startServer(t)
	client := NewTCPClient(addr)
	defer client.Close()

	f, err := NewFormat(workload.NestedStructType(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Register(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != f.ID {
		t.Errorf("registered ID %#x, want %#x", got.ID, f.ID)
	}

	looked, err := client.Lookup(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !looked.Type.Equal(f.Type) {
		t.Error("looked-up type differs from registered type")
	}
	if _, err := client.Lookup(0xdeadbeef); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("lookup unknown: %v", err)
	}
	if _, err := client.Register(nil); err == nil {
		t.Error("nil register must fail")
	}
}

func TestTCPEndToEndCodecs(t *testing.T) {
	// Sender and receiver in (conceptually) different processes sharing
	// only the TCP format server.
	_, addr := startServer(t)
	senderClient := NewTCPClient(addr)
	defer senderClient.Close()
	receiverClient := NewTCPClient(addr)
	defer receiverClient.Close()

	sender := NewCodecOrder(NewRegistry(senderClient), binary.BigEndian)
	receiver := NewCodec(NewRegistry(receiverClient))

	v := workload.NestedStruct(4, 2)
	msg, err := sender.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Error("end-to-end round trip over TCP format server failed")
	}
	// Second message: no further server traffic from the receiver.
	before := receiver.Registry().Stats().ServerLookups
	msg2, _ := sender.Marshal(v)
	if _, err := receiver.Unmarshal(msg2); err != nil {
		t.Fatal(err)
	}
	if after := receiver.Registry().Stats().ServerLookups; after != before {
		t.Errorf("warm message triggered %d extra lookups", after-before)
	}
}

func TestTCPClientReconnects(t *testing.T) {
	srv, addr := startServer(t)
	client := NewTCPClient(addr)
	defer client.Close()

	f, _ := NewFormat(workload.IntArrayType())
	if _, err := client.Register(f); err != nil {
		t.Fatal(err)
	}
	// Kill the client's connection server-side; next call must reconnect.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	if _, err := client.Lookup(f.ID); err != nil {
		t.Fatalf("lookup after dropped connection: %v", err)
	}
}

func TestTCPServerRejectsMalformedFrames(t *testing.T) {
	_, addr := startServer(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var hdr [frame.LenSize + 1]byte
	exchange := func(req []byte) (byte, error) {
		if err := frame.Write(conn, hdr[:frame.LenSize], req, maxFrame); err != nil {
			t.Fatal(err)
		}
		payload, err := frame.Read(conn, hdr[:], maxFrame)
		bufpool.Put(payload)
		return hdr[frame.LenSize], err
	}
	for name, req := range map[string][]byte{
		"unknown op":              {'Z'},
		"short lookup payload":    {opLookup, 1, 2},
		"bad register descriptor": {opRegister, 99},
	} {
		// An error frame, not a dropped connection.
		if op, err := exchange(req); err != nil || op != opError {
			t.Errorf("%s: op=%q err=%v, want an error frame", name, op, err)
		}
	}

	// A zero-length frame has no op byte: the connection is dropped as
	// soon as the byte after the prefix shows the frame for what it is.
	if _, err := conn.Write(make([]byte, frame.LenSize+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := frame.Read(conn, hdr[:], maxFrame); err == nil {
		t.Error("expected connection drop after zero-length frame")
	}
}

// TestTCPClientBoundsBlackholedServer: a format server that accepts the
// connection and never answers must fail the round trip at its deadline
// rather than hang the caller's first Marshal forever.
func TestTCPClientBoundsBlackholedServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open, never read, until the test ends
		}
	}()
	client := NewTCPClient(ln.Addr().String())
	defer client.Close()
	start := time.Now()
	_, _, err = client.tryOnce([]byte{opLookup, 0, 0, 0, 0, 0, 0, 0, 1}, start.Add(50*time.Millisecond))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("blackholed round trip error = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("blackholed round trip took %v", elapsed)
	}
}

func TestTCPServerCloseIsIdempotent(t *testing.T) {
	srv := NewTCPServer(nil)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close must be nil:", err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Error("ListenAndServe after Close must fail")
	}
}

func TestTCPClientDialFailure(t *testing.T) {
	client := NewTCPClient("127.0.0.1:1") // nothing listens here
	defer client.Close()
	f, _ := NewFormat(workload.IntArrayType())
	if _, err := client.Register(f); err == nil {
		t.Error("register against dead server must fail")
	}
}
