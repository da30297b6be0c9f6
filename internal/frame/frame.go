// Package frame is the one length-prefixed framer of the tree. A frame is
//
//	u32 big-endian length | payload
//
// and a protocol built on it (core's multiplexed SOAP-bin TCP, pbio's
// format server) splits the payload into a fixed-size header of its own
// — a correlation ID, an op code — and a body. The package knows the
// length prefix, the size bound and the body's buffer; the protocols
// know what their header bytes mean.
//
// Ownership: the body Read returns is a bufpool buffer with exactly one
// owner, the caller (bufpool rules 1–3). On every error path Read has
// already released the buffer and returns nil, so an error never leaves
// a pooled buffer leaked or owned twice. Write borrows hdr and body for
// the duration of the call and keeps neither.
package frame

import (
	"encoding/binary"
	"fmt"
	"io"

	"soapbinq/internal/bufpool"
)

// LenSize is the size of the length prefix. Header scratch passed to
// Read and Write starts with LenSize bytes the package fills in.
const LenSize = 4

// Read reads one frame from r. hdr is caller scratch of LenSize+h bytes:
// on return hdr[LenSize:] holds the first h payload bytes (the
// protocol's fixed header) and body holds the rest in a pooled buffer
// the caller owns. The declared length is checked against h and limit
// before anything is allocated, so a hostile prefix costs the receiver
// nothing. A frame costs two reads: prefix plus header, then body.
//
//soaplint:hotpath
func Read(r io.Reader, hdr []byte, limit int) (body []byte, err error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr))
	h := int64(len(hdr) - LenSize)
	if n < h || n > int64(limit) {
		return nil, fmt.Errorf("frame: bad length %d (header %d, limit %d)", n, h, limit)
	}
	body = bufpool.Get(int(n - h))[:n-h]
	if _, err := io.ReadFull(r, body); err != nil {
		bufpool.Put(body)
		return nil, err
	}
	return body, nil
}

// Write writes one frame to w: hdr — whose first LenSize bytes Write
// fills with the payload length, the rest being the protocol's header —
// then body, as two writes with no copy of the body. A payload above
// limit is refused before any byte is written, so the stream stays
// framed.
//
//soaplint:hotpath
func Write(w io.Writer, hdr, body []byte, limit int) error {
	n := len(hdr) - LenSize + len(body)
	if n > limit {
		return fmt.Errorf("frame: payload of %d bytes exceeds %d byte limit", n, limit)
	}
	binary.BigEndian.PutUint32(hdr, uint32(n))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}
