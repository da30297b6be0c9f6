package pbio

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"soapbinq/internal/idl"
	"soapbinq/internal/workload"
)

func newPair(t *testing.T) (*Codec, *Codec) {
	t.Helper()
	server := NewMemServer()
	return NewCodec(NewRegistry(server)), NewCodec(NewRegistry(server))
}

func roundTrip(t *testing.T, sender, receiver *Codec, v idl.Value) idl.Value {
	t.Helper()
	msg, err := sender.Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%s): %v", v.Type, err)
	}
	got, err := receiver.Unmarshal(msg)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", v.Type, err)
	}
	return got
}

func TestRoundTripScalarsAndComposites(t *testing.T) {
	sender, receiver := newPair(t)
	values := []idl.Value{
		idl.IntV(-42),
		idl.IntV(1 << 60),
		idl.FloatV(3.14159),
		idl.FloatV(-0.0),
		idl.CharV(0xFF),
		idl.StringV(""),
		idl.StringV("hello, \x00 world — ünïcode"),
		idl.ListV(idl.Int()),
		idl.ListV(idl.StringT(), idl.StringV("a"), idl.StringV("b")),
		workload.IntArray(1000),
		workload.NestedStruct(5, 3),
	}
	for _, v := range values {
		got := roundTrip(t, sender, receiver, v)
		if !got.Equal(v) {
			t.Errorf("round trip mismatch for %s:\n got %s\nwant %s", v.Type, got, v)
		}
	}
}

func TestReceiverMakesRight(t *testing.T) {
	// A big-endian sender (the paper's SPARC) and a little-endian receiver
	// (the paper's x86): payload bytes differ, decoded values agree.
	server := NewMemServer()
	bigSender := NewCodecOrder(NewRegistry(server), binary.BigEndian)
	littleSender := NewCodecOrder(NewRegistry(server), binary.LittleEndian)
	receiver := NewCodec(NewRegistry(server))

	v := workload.NestedStruct(3, 2)
	bigMsg, err := bigSender.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	littleMsg, err := littleSender.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(bigMsg[headerLen:]) == string(littleMsg[headerLen:]) {
		t.Fatal("big- and little-endian payloads should differ for this value")
	}
	gotBig, err := receiver.Unmarshal(bigMsg)
	if err != nil {
		t.Fatal(err)
	}
	gotLittle, err := receiver.Unmarshal(littleMsg)
	if err != nil {
		t.Fatal(err)
	}
	if !gotBig.Equal(v) || !gotLittle.Equal(v) {
		t.Error("receiver-makes-right conversion failed")
	}
}

func TestHeaderFlagsReflectOrder(t *testing.T) {
	server := NewMemServer()
	big := NewCodecOrder(NewRegistry(server), binary.BigEndian)
	msg, err := big.Marshal(idl.IntV(7))
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.BigEndian {
		t.Error("big-endian flag not set")
	}
	if h.PayloadLen != 8 {
		t.Errorf("payload len = %d, want 8", h.PayloadLen)
	}
	if h.FormatID != FormatID(idl.Int()) {
		t.Errorf("format ID mismatch")
	}
}

func TestParseHeaderErrors(t *testing.T) {
	sender, _ := newPair(t)
	msg, _ := sender.Marshal(idl.IntV(1))

	short := msg[:headerLen-1]
	if _, err := ParseHeader(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
	badMagic := append([]byte{}, msg...)
	badMagic[0] = 'X'
	if _, err := ParseHeader(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	badVer := append([]byte{}, msg...)
	badVer[4] = 99
	if _, err := ParseHeader(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	sender, receiver := newPair(t)
	msg, _ := sender.Marshal(workload.IntArray(4))

	if _, err := receiver.Unmarshal(msg[:len(msg)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: %v", err)
	}
	if _, err := receiver.Unmarshal(append(append([]byte{}, msg...), 0)); err == nil {
		t.Error("trailing bytes must be rejected")
	}

	// Unknown format ID: receiver with an empty, unrelated server.
	stranger := NewCodec(NewRegistry(NewMemServer()))
	if _, err := stranger.Unmarshal(msg); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("unknown format: %v", err)
	}

	// Hostile list count.
	hostile := append([]byte{}, msg...)
	binary.LittleEndian.PutUint32(hostile[headerLen:], 1<<30)
	if _, err := receiver.Unmarshal(hostile); !errors.Is(err, ErrTruncated) {
		t.Errorf("hostile count: %v", err)
	}
}

func TestMarshalErrors(t *testing.T) {
	sender, _ := newPair(t)
	if _, err := sender.Marshal(idl.Value{}); err == nil {
		t.Error("untyped value must not marshal")
	}
	badList := idl.Value{Type: idl.List(idl.Int()), List: []idl.Value{idl.StringV("x")}}
	if _, err := sender.Marshal(badList); err == nil {
		t.Error("ill-typed list must not marshal")
	}
	badStruct := idl.Value{Type: idl.Struct("S", idl.F("x", idl.Int()))}
	if _, err := sender.Marshal(badStruct); err == nil {
		t.Error("missing struct fields must not marshal")
	}
	wrongField := idl.Value{
		Type:   idl.Struct("S2", idl.F("x", idl.Int())),
		Fields: []idl.Value{idl.FloatV(1)},
	}
	if _, err := sender.Marshal(wrongField); err == nil {
		t.Error("ill-typed struct field must not marshal")
	}
	if _, err := sender.EncodeBody(idl.Value{}); err == nil {
		t.Error("untyped EncodeBody must fail")
	}
}

func TestEncodeBodyDecodeBody(t *testing.T) {
	sender, receiver := newPair(t)
	v := workload.NestedStruct(2, 2)
	body, err := sender.EncodeBody(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.DecodeBody(body, v.Type, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Error("body round trip mismatch")
	}
	if _, err := receiver.DecodeBody(body[:len(body)-2], v.Type, false); err == nil {
		t.Error("truncated body must fail")
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	sender, _ := newPair(t)
	values := []idl.Value{
		idl.IntV(1), idl.FloatV(1), idl.CharV('x'), idl.StringV("abc"),
		workload.IntArray(17),
		workload.NestedStruct(4, 2),
	}
	for _, v := range values {
		body, err := sender.EncodeBody(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sender.EncodedSize(v); err != nil || got != len(body) {
			t.Errorf("%s: EncodedSize = %d, %v; encoded %d", v.Type, got, err, len(body))
		}
	}
	// A value without the field a string should be in is sized by encoding
	// it, so the error is the encoder's own.
	bad := idl.Value{Type: idl.Struct("P", idl.F("n", idl.Int()), idl.F("name", idl.StringT())), Fields: []idl.Value{idl.IntV(1)}}
	_, encErr := sender.EncodeBody(bad)
	if _, err := sender.EncodedSize(bad); err == nil || encErr == nil || err.Error() != encErr.Error() {
		t.Errorf("EncodedSize(short struct) = %v, encoder says %v", err, encErr)
	}
	if _, err := sender.EncodedSize(idl.Value{}); err == nil {
		t.Error("untyped value must have no size")
	}
}

func TestColdStartRegistrationCost(t *testing.T) {
	// First message of a type costs a server round trip on both sides;
	// subsequent messages are served from the local caches.
	server := NewMemServer()
	sender := NewCodec(NewRegistry(server))
	receiver := NewCodec(NewRegistry(server))

	v := workload.NestedStruct(4, 2)
	for i := 0; i < 5; i++ {
		msg, err := sender.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := receiver.Unmarshal(msg); err != nil {
			t.Fatal(err)
		}
	}
	ss := sender.Registry().Stats()
	if ss.Registrations != 1 {
		t.Errorf("sender registrations = %d, want 1", ss.Registrations)
	}
	if ss.CacheHits != 4 {
		t.Errorf("sender cache hits = %d, want 4", ss.CacheHits)
	}
	rs := receiver.Registry().Stats()
	if rs.ServerLookups != 1 {
		t.Errorf("receiver server lookups = %d, want 1", rs.ServerLookups)
	}
	if rs.CacheHits != 4 {
		t.Errorf("receiver cache hits = %d, want 4", rs.CacheHits)
	}
}

func TestMemServerCollisionAndIdempotence(t *testing.T) {
	s := NewMemServer()
	f1, _ := NewFormat(idl.Struct("A", idl.F("x", idl.Int())))
	if _, err := s.Register(f1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(f1); err != nil {
		t.Fatal("re-registration must be idempotent:", err)
	}
	st := s.Stats()
	if st.Registrations != 1 || st.ReRegistered != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Forged collision: same ID, different type.
	forged := &Format{ID: f1.ID, Name: "B", Type: idl.Struct("B", idl.F("y", idl.Float()))}
	if _, err := s.Register(forged); err == nil {
		t.Error("ID collision must be rejected")
	}
	if _, err := s.Register(nil); err == nil {
		t.Error("nil format must be rejected")
	}
	if _, err := s.Lookup(12345); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("lookup unknown: %v", err)
	}
}

func TestAppendMarshalReuse(t *testing.T) {
	sender, receiver := newPair(t)
	buf := make([]byte, 0, 4096)
	v1 := idl.IntV(1)
	v2 := idl.StringV("two")
	buf, err := sender.AppendMarshal(buf, v1)
	if err != nil {
		t.Fatal(err)
	}
	n1 := len(buf)
	buf, err = sender.AppendMarshal(buf, v2)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := receiver.Unmarshal(buf[:n1])
	if err != nil {
		t.Fatal(err)
	}
	got2, err := receiver.Unmarshal(buf[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if !got1.Equal(v1) || !got2.Equal(v2) {
		t.Error("concatenated messages corrupted")
	}
}

// Property: Marshal→Unmarshal is the identity for random values of random
// types, across byte orders.
func TestQuickRoundTrip(t *testing.T) {
	server := NewMemServer()
	little := NewCodecOrder(NewRegistry(server), binary.LittleEndian)
	big := NewCodecOrder(NewRegistry(server), binary.BigEndian)
	receiver := NewCodec(NewRegistry(server))

	typ := workload.NestedStructType(3)
	f := func(seed uint64, useBig bool) bool {
		v := workload.Random(typ, seed)
		sender := little
		if useBig {
			sender = big
		}
		msg, err := sender.Marshal(v)
		if err != nil {
			return false
		}
		got, err := receiver.Unmarshal(msg)
		if err != nil {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
