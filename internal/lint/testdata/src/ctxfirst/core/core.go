// Package core is a ctxfirst golden fixture. Its import path ends in
// "core", so all three ctxfirst rules apply here.
package core

import (
	"context"
	"net"
)

// HandleOp takes a context, but not first.
func HandleOp(name string, ctx context.Context) error { // want "context must be the first parameter"
	_ = name
	return ctx.Err()
}

// Ping dials without giving the caller a way to bound it.
func Ping(addr string) error { // want "performs network I/O but takes no context.Context"
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	return conn.Close()
}

// Probe performs I/O only transitively, through dial.
func Probe(addr string) error { // want "performs network I/O but takes no context.Context"
	return dial(addr)
}

// dial is unexported: it is the I/O source, but only exported entry
// points are required to take a context.
func dial(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	return conn.Close()
}

// Send writes on an established connection; the write can block, so the
// exported entry point must accept a context.
func Send(conn net.Conn, b []byte) error { // want "performs network I/O but takes no context.Context"
	_, err := conn.Write(b)
	return err
}

// Fetch threads its context first and is exempt from every rule.
func Fetch(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	return conn.Close()
}

// fallback mints a root context in library code.
func fallback() context.Context {
	return context.Background() // want "must not create a root context with context.Background"
}

// todo does the same with the other constructor.
func todo() context.Context {
	return context.TODO() // want "must not create a root context with context.TODO"
}

// legacy exercises the suppression directive: same violation as
// fallback, silenced with a reason.
func legacy() context.Context {
	//lint:ignore ctxfirst golden fixture exercising the suppression path
	return context.Background()
}

var _ = []any{fallback, todo, legacy}
