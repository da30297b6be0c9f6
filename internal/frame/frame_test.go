package frame

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/obs"
)

// poolTraffic reads the buffer pool's get and put counters off the
// metrics exposition (bufpool keeps the handles to itself).
func poolTraffic(t *testing.T) (gets, puts int) {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, value, _ := strings.Cut(line, " ")
		switch name {
		case "soapbinq_pool_buffer_gets_total":
			gets, _ = strconv.Atoi(value)
		case "soapbinq_pool_buffer_puts_total":
			puts, _ = strconv.Atoi(value)
		}
	}
	return gets, puts
}

func TestWriteReadRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	hdr := []byte{0, 0, 0, 0, 'i', 'd'}
	if err := Write(&wire, hdr, []byte("body"), 64); err != nil {
		t.Fatal(err)
	}
	if err := Write(&wire, hdr, nil, 64); err != nil { // header-only frame
		t.Fatal(err)
	}
	if got, want := wire.String(), "\x00\x00\x00\x06idbody\x00\x00\x00\x02id"; got != want {
		t.Fatalf("wire = %q, want %q", got, want)
	}
	for _, want := range []string{"body", ""} {
		var in [LenSize + 2]byte
		body, err := Read(&wire, in[:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if string(in[LenSize:]) != "id" || string(body) != want {
			t.Fatalf("read header %q body %q, want \"id\" %q", in[LenSize:], body, want)
		}
		bufpool.Put(body)
	}
}

func TestWriteRefusesOversizeBeforeWriting(t *testing.T) {
	var wire bytes.Buffer
	if err := Write(&wire, make([]byte, LenSize+1), make([]byte, 8), 8); err == nil {
		t.Fatal("9-byte payload passed an 8-byte limit")
	}
	if wire.Len() != 0 {
		t.Fatalf("%d bytes written before the refusal", wire.Len())
	}
}

// FuzzFrameRead checks Read against arbitrary streams: the length is
// held to [header size, limit] before any buffer is taken from the pool,
// an error returns no buffer and leaves none outstanding, and success
// hands over exactly one buffer holding exactly the frame's body.
func FuzzFrameRead(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x06idbody"), uint8(2), uint16(64))
	f.Add([]byte("\x00\x00\x00\x06idbo"), uint8(2), uint16(64))   // truncated body
	f.Add([]byte("\x00\x00\x00\x01id"), uint8(2), uint16(64))     // length below the header
	f.Add([]byte("\x00\x00\x00\x41id"), uint8(2), uint16(64))     // one past the limit
	f.Add([]byte("\xff\xff\xff\xffidbody"), uint8(2), uint16(64)) // hostile length
	f.Add([]byte("\x00\x00"), uint8(0), uint16(64))               // truncated prefix
	f.Add([]byte("\x00\x00\x00\x00"), uint8(0), uint16(0))        // empty frame
	f.Add(append([]byte("\x00\x00\x02\x00"), make([]byte, 512)...), uint8(9), uint16(1024))

	f.Fuzz(func(t *testing.T, data []byte, h uint8, limit16 uint16) {
		hdr := make([]byte, LenSize+int(h%32))
		limit := int(limit16)
		gets0, puts0 := poolTraffic(t)
		body, err := Read(bytes.NewReader(data), hdr, limit)
		gets, puts := poolTraffic(t)
		gets, puts = gets-gets0, puts-puts0

		if len(data) < len(hdr) {
			if err == nil || gets != 0 {
				t.Fatalf("truncated header: err=%v, %d buffers taken", err, gets)
			}
			return
		}
		n := int64(binary.BigEndian.Uint32(data))
		fixed := int64(len(hdr) - LenSize)
		if n < fixed || n > int64(limit) {
			if err == nil || body != nil || gets != 0 {
				t.Fatalf("length %d outside [%d, %d]: err=%v body=%v, %d buffers taken", n, fixed, limit, err, body != nil, gets)
			}
			return
		}
		if err != nil {
			if body != nil || gets != puts {
				t.Fatalf("error %v: body returned=%v, %d buffers taken, %d released", err, body != nil, gets, puts)
			}
			if int64(len(data)-len(hdr)) >= n-fixed {
				t.Fatalf("whole frame present but Read failed: %v", err)
			}
			return
		}
		if gets != 1 || puts != 0 {
			t.Fatalf("success took %d buffers and released %d, want 1 and 0", gets, puts)
		}
		if !bytes.Equal(hdr[LenSize:], data[LenSize:len(hdr)]) || !bytes.Equal(body, data[len(hdr):int64(len(hdr))+n-fixed]) {
			t.Fatalf("frame mangled: header %q body %q from %q", hdr[LenSize:], body, data)
		}
		bufpool.Put(body)
	})
}
