package xmlenc

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/workload"
)

func mustMarshal(t *testing.T, name string, v idl.Value) []byte {
	t.Helper()
	b, err := Marshal(name, v)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return b
}

func TestScalarRoundTrip(t *testing.T) {
	cases := []struct {
		v    idl.Value
		want string
	}{
		{idl.IntV(-42), "<p>-42</p>"},
		{idl.IntV(0), "<p>0</p>"},
		{idl.FloatV(1.5), "<p>1.5</p>"},
		{idl.FloatV(math.Inf(1)), "<p>INF</p>"},
		{idl.FloatV(math.Inf(-1)), "<p>-INF</p>"},
		{idl.CharV(200), "<p>200</p>"},
		{idl.StringV("a<b&c>"), "<p>a&lt;b&amp;c&gt;</p>"},
		{idl.StringV(""), "<p></p>"},
	}
	for _, tc := range cases {
		b := mustMarshal(t, "p", tc.v)
		if string(b) != tc.want {
			t.Errorf("Marshal(%s) = %q, want %q", tc.v, b, tc.want)
		}
		got, err := Unmarshal(b, "p", tc.v.Type)
		if err != nil {
			t.Fatalf("Unmarshal(%q): %v", b, err)
		}
		if !got.Equal(tc.v) {
			t.Errorf("round trip %q: got %s, want %s", b, got, tc.v)
		}
	}
}

func TestNaNRoundTrip(t *testing.T) {
	b := mustMarshal(t, "p", idl.FloatV(math.NaN()))
	got, err := Unmarshal(b, "p", idl.Float())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Float) {
		t.Errorf("NaN round trip = %v", got.Float)
	}
}

func TestListEncoding(t *testing.T) {
	v := idl.ListV(idl.Int(), idl.IntV(1), idl.IntV(2), idl.IntV(3))
	b := mustMarshal(t, "nums", v)
	want := "<nums><item>1</item><item>2</item><item>3</item></nums>"
	if string(b) != want {
		t.Errorf("Marshal = %q, want %q", b, want)
	}
	got, err := Unmarshal(b, "nums", v.Type)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Error("list round trip mismatch")
	}
	// Empty list.
	empty := idl.ListV(idl.Int())
	be := mustMarshal(t, "nums", empty)
	if string(be) != "<nums></nums>" {
		t.Errorf("empty list = %q", be)
	}
	gotE, err := Unmarshal(be, "nums", empty.Type)
	if err != nil || len(gotE.List) != 0 {
		t.Errorf("empty list round trip: %v %v", gotE, err)
	}
}

func TestCharListIsBase64(t *testing.T) {
	raw := []byte{0, 1, 2, 250, 255}
	elems := make([]idl.Value, len(raw))
	for i, b := range raw {
		elems[i] = idl.CharV(b)
	}
	v := idl.Value{Type: idl.List(idl.Char()), List: elems}
	b := mustMarshal(t, "data", v)
	if strings.Contains(string(b), "<item>") {
		t.Errorf("char list must not use per-item tags: %q", b)
	}
	got, err := Unmarshal(b, "data", v.Type)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Error("char list round trip mismatch")
	}
}

func TestStructRoundTrip(t *testing.T) {
	v := workload.NestedStruct(4, 3)
	b := mustMarshal(t, "order", v)
	got, err := Unmarshal(b, "order", v.Type)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Error("nested struct round trip mismatch")
	}
}

func TestWhitespaceTolerance(t *testing.T) {
	doc := "\n  <p>\n  <x>1</x>\n  <y>2.5</y>\n  </p>\n"
	typ := idl.Struct("P", idl.F("x", idl.Int()), idl.F("y", idl.Float()))
	got, err := Unmarshal([]byte(doc), "p", typ)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := got.Field("x")
	if x.Int != 1 {
		t.Errorf("x = %d", x.Int)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	typ := idl.Struct("P", idl.F("x", idl.Int()))
	cases := map[string]struct {
		doc  string
		name string
		t    *idl.Type
	}{
		"wrong root":        {"<q><x>1</x></q>", "p", typ},
		"unknown field":     {"<p><z>1</z></p>", "p", typ},
		"missing field":     {"<p></p>", "p", typ},
		"duplicate field":   {"<p><x>1</x><x>2</x></p>", "p", typ},
		"bad int":           {"<p><x>abc</x></p>", "p", typ},
		"bad float":         {"<v>xyz</v>", "v", idl.Float()},
		"bad char":          {"<v>300</v>", "v", idl.Char()},
		"bad base64":        {"<v>!!!</v>", "v", idl.List(idl.Char())},
		"nested in scalar":  {"<v><w>1</w></v>", "v", idl.Int()},
		"text in struct":    {"<p>junk<x>1</x></p>", "p", typ},
		"text in list":      {"<v>junk<item>1</item></v>", "v", idl.List(idl.Int())},
		"wrong item tag":    {"<v><elem>1</elem></v>", "v", idl.List(idl.Int())},
		"truncated":         {"<p><x>1</x>", "p", typ},
		"trailing garbage":  {"<v>1</v><v>2</v>", "v", idl.Int()},
		"trailing text":     {"<v>1</v>junk", "v", idl.Int()},
		"empty doc":         {"", "p", typ},
		"nil type":          {"<v>1</v>", "v", nil},
		"leading real text": {"junk<v>1</v>", "v", idl.Int()},
	}
	for name, tc := range cases {
		if _, err := Unmarshal([]byte(tc.doc), tc.name, tc.t); err == nil {
			t.Errorf("%s: expected error for %q", name, tc.doc)
		}
	}
}

func TestUnmarshalSkipsCommentsAndProcInst(t *testing.T) {
	doc := `<?xml version="1.0"?><!-- hi --><p><!-- mid --><x>5</x></p>`
	typ := idl.Struct("P", idl.F("x", idl.Int()))
	got, err := Unmarshal([]byte(doc), "p", typ)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := got.Field("x")
	if x.Int != 5 {
		t.Errorf("x = %d", x.Int)
	}
}

func TestMarshalErrors(t *testing.T) {
	if _, err := Marshal("p", idl.Value{}); err == nil {
		t.Error("untyped value must fail")
	}
	if _, err := Marshal("", idl.IntV(1)); err == nil {
		t.Error("empty name must fail")
	}
	bad := idl.Value{Type: idl.List(idl.Int()), List: []idl.Value{idl.StringV("x")}}
	if _, err := Marshal("p", bad); err == nil {
		t.Error("ill-typed value must fail")
	}
}

func TestDecodeElementInsideLargerDoc(t *testing.T) {
	doc := `<env><header/><body><x>7</x><rest/></body></env>`
	dec := xml.NewDecoder(strings.NewReader(doc))
	// consume <env>, <header/>, </header>, <body>
	for i := 0; i < 4; i++ {
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := DecodeElement(dec, "x", idl.Int())
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 7 {
		t.Errorf("x = %d", v.Int)
	}
}

func pbioSize(t *testing.T, v idl.Value) int {
	t.Helper()
	n, err := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer())).EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestXMLBlowupVsPBIO(t *testing.T) {
	// The paper's size claim: XML is several times larger than PBIO for
	// arrays, and more for nested structs (tags at every level).
	arr := workload.IntArray(1000)
	xmlB := mustMarshal(t, "a", arr)
	ratioArr := float64(len(xmlB)) / float64(pbioSize(t, arr))
	if ratioArr < 1.5 {
		t.Errorf("array XML/PBIO ratio = %.2f, expected substantial blowup", ratioArr)
	}
	st := workload.NestedStruct(8, 4)
	xmlS := mustMarshal(t, "s", st)
	ratioStruct := float64(len(xmlS)) / float64(pbioSize(t, st))
	if ratioStruct <= ratioArr*0.8 {
		t.Errorf("nested struct ratio %.2f should not be far below array ratio %.2f", ratioStruct, ratioArr)
	}
}

func TestAppendMarshal(t *testing.T) {
	prefix := []byte("<pre>")
	b, err := AppendMarshal(prefix, "v", idl.IntV(9))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "<pre><v>9</v>" {
		t.Errorf("AppendMarshal = %q", b)
	}
}

// Property: Marshal→Unmarshal is the identity for XML-safe random values.
func TestQuickRoundTrip(t *testing.T) {
	typ := workload.NestedStructType(3)
	f := func(seed uint64) bool {
		v := workload.Random(typ, seed)
		b, err := Marshal("root", v)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b, "root", typ)
		if err != nil {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: XML and PBIO encodings agree after decoding each other's input.
func TestQuickCrossCodecAgreement(t *testing.T) {
	server := pbio.NewMemServer()
	codec := pbio.NewCodec(pbio.NewRegistry(server))
	typ := idl.List(workload.NestedStructType(2))
	f := func(seed uint64) bool {
		v := workload.Random(typ, seed)
		xb, err := Marshal("v", v)
		if err != nil {
			return false
		}
		fromXML, err := Unmarshal(xb, "v", typ)
		if err != nil {
			return false
		}
		pb, err := codec.Marshal(fromXML)
		if err != nil {
			return false
		}
		fromPBIO, err := codec.Unmarshal(pb)
		if err != nil {
			return false
		}
		return fromPBIO.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
