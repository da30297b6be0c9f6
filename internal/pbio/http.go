package pbio

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// HTTP transport for the format-server protocol: one request frame per
// POST body, one reply frame per response body (the same frames the TCP
// transport uses, without the length prefix — HTTP provides framing).
// This lets an application server publish its format registry on the
// same HTTP listener that serves SOAP, so clients in other processes can
// resolve formats with no extra infrastructure.

// FormatContentType is the media type of format-protocol frames.
const FormatContentType = "application/x-pbio-format"

// NewHTTPHandler serves format registrations and lookups from a store.
func NewHTTPHandler(store *MemServer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		frame, err := io.ReadAll(io.LimitReader(r.Body, maxFrame+1))
		if err != nil || len(frame) == 0 || len(frame) > maxFrame {
			http.Error(w, "bad frame", http.StatusBadRequest)
			return
		}
		var reply []byte
		switch frame[0] {
		case opRegister:
			reply = handleRegisterFrame(store, frame[1:])
		case opLookup:
			reply = handleLookupFrame(store, frame[1:])
		default:
			reply = errorFrame(fmt.Sprintf("unknown op %q", frame[0]))
		}
		w.Header().Set("Content-Type", FormatContentType)
		w.Write(reply)
	})
}

func handleRegisterFrame(store *MemServer, payload []byte) []byte {
	t, err := ParseDescriptor(payload)
	if err != nil {
		return errorFrame(err.Error())
	}
	f, err := NewFormat(t)
	if err != nil {
		return errorFrame(err.Error())
	}
	if _, err := store.Register(f); err != nil {
		return errorFrame(err.Error())
	}
	out := make([]byte, 0, 9)
	out = append(out, opFormatID)
	return appendID(out, f.ID)
}

func handleLookupFrame(store *MemServer, payload []byte) []byte {
	if len(payload) != 8 {
		return errorFrame("lookup payload must be 8 bytes")
	}
	f, err := store.Lookup(readID(payload))
	if err != nil {
		return errorFrame(err.Error())
	}
	return AppendDescriptor([]byte{opDescriptor}, f.Type)
}

// HTTPFormatClient is a Server implementation speaking the format
// protocol over HTTP POST.
type HTTPFormatClient struct {
	URL    string
	Client *http.Client // nil means http.DefaultClient
}

// NewHTTPFormatClient returns a client of the format endpoint at url.
func NewHTTPFormatClient(url string) *HTTPFormatClient {
	return &HTTPFormatClient{URL: url}
}

// Register implements Server.
//
//lint:ignore ctxfirst the Server interface fixes the signature; roundTripTimeout bounds the exchange
func (c *HTTPFormatClient) Register(f *Format) (*Format, error) {
	if f == nil || f.Type == nil {
		return nil, fmt.Errorf("pbio: register nil format")
	}
	reply, err := c.post(AppendDescriptor([]byte{opRegister}, f.Type))
	if err != nil {
		return nil, err
	}
	switch reply[0] {
	case opFormatID:
		if len(reply) != 9 {
			return nil, fmt.Errorf("pbio: malformed register reply")
		}
		if id := readID(reply[1:]); id != f.ID {
			return nil, fmt.Errorf("pbio: server assigned ID %#x, expected %#x", id, f.ID)
		}
		return f, nil
	case opError:
		return nil, fmt.Errorf("pbio: format server: %s", reply[1:])
	default:
		return nil, fmt.Errorf("pbio: unexpected reply op %q", reply[0])
	}
}

// Lookup implements Server.
//
//lint:ignore ctxfirst the Server interface fixes the signature; roundTripTimeout bounds the exchange
func (c *HTTPFormatClient) Lookup(id uint64) (*Format, error) {
	reply, err := c.post(appendID([]byte{opLookup}, id))
	if err != nil {
		return nil, err
	}
	switch reply[0] {
	case opDescriptor:
		t, err := ParseDescriptor(reply[1:])
		if err != nil {
			return nil, err
		}
		return NewFormat(t)
	case opError:
		return nil, fmt.Errorf("%w: %s", ErrUnknownFormat, reply[1:])
	default:
		return nil, fmt.Errorf("pbio: unexpected reply op %q", reply[0])
	}
}

// post performs one round trip, bounded by roundTripTimeout unless the
// configured Client carries a timeout of its own.
func (c *HTTPFormatClient) post(frame []byte) ([]byte, error) {
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	if client.Timeout == 0 {
		bounded := *client
		bounded.Timeout = roundTripTimeout
		client = &bounded
	}
	hreq, err := http.NewRequest(http.MethodPost, c.URL, bytes.NewReader(frame))
	if err != nil {
		return nil, fmt.Errorf("pbio: build format request: %w", err)
	}
	hreq.Header.Set("Content-Type", FormatContentType)
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("pbio: format POST: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pbio: format server status %s", resp.Status)
	}
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxFrame+1))
	if err != nil {
		return nil, fmt.Errorf("pbio: read format reply: %w", err)
	}
	if len(reply) == 0 {
		return nil, fmt.Errorf("pbio: empty format reply")
	}
	return reply, nil
}

var _ Server = (*HTTPFormatClient)(nil)

// appendID/readID/putID keep the frame ID byte order in one place
// (big-endian, like the TCP transport).
func appendID(dst []byte, id uint64) []byte {
	var buf [8]byte
	putID(buf[:], id)
	return append(dst, buf[:]...)
}

func putID(dst []byte, id uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(id >> (56 - 8*i))
	}
}

func readID(b []byte) uint64 {
	var id uint64
	for i := 0; i < 8; i++ {
		id = id<<8 | uint64(b[i])
	}
	return id
}
