package ois

import (
	"context"
	"strings"
	"testing"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
	"soapbinq/internal/xmlenc"
)

func populated(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset()
	Generate(d, 10, 120, 7)
	return d
}

func TestGenerateDeterministic(t *testing.T) {
	d1 := populated(t)
	d2 := populated(t)
	if d1.Flights() != 10 {
		t.Fatalf("flights = %d", d1.Flights())
	}
	c1, err := d1.Catering("DL0103")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := d2.Catering("DL0103")
	if !c1.ToValue().Equal(c2.ToValue()) {
		t.Error("generation must be deterministic")
	}
}

func TestCateringBusinessRules(t *testing.T) {
	d := NewDataset()
	d.AddFlight(&Flight{Number: "DL1", Gate: "A1", DepartMin: 100})
	d.AddPassenger(&Passenger{ID: 1, Flight: "DL1", Seat: "1A", Meal: "V"})
	d.AddPassenger(&Passenger{ID: 2, Flight: "DL1", Seat: "1B", Meal: "V"})
	d.AddPassenger(&Passenger{ID: 3, Flight: "DL1", Seat: "1C", Meal: ""})
	d.AddPassenger(&Passenger{ID: 4, Flight: "DL1", Seat: "1D", Meal: "X"}) // unknown → standard

	c, err := d.Catering("DL1")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]MealCount{}
	for _, m := range c.Meals {
		got[m.Code] = m
	}
	if got[MealVeg].Count != 2 || got[MealStandard].Count != 2 {
		t.Errorf("meals = %v", c.Meals)
	}
	if got[MealVeg].Carts != 1 || got[MealVeg].Loaded != 2 {
		t.Errorf("veg manifest = %+v", got[MealVeg])
	}
	// Requests only for non-standard meals; unknown codes fold to standard.
	if len(c.Requests) != 2 {
		t.Errorf("requests = %v", c.Requests)
	}
	if c.Requests[0].Row != 1 || c.Requests[0].Col != 'A' || c.Requests[0].Code != MealVeg {
		t.Errorf("requests[0] = %+v", c.Requests[0])
	}
	if MealName(MealKosher) != "kosher" || !strings.Contains(MealName(99), "99") {
		t.Error("MealName mapping")
	}

	if _, err := d.Catering("XX99"); err == nil {
		t.Error("unknown flight must fail")
	}
}

func TestValueRoundTrip(t *testing.T) {
	d := populated(t)
	c, err := d.Catering("DL0100")
	if err != nil {
		t.Fatal(err)
	}
	v := c.ToValue()
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	back, err := FromValue(v)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ToValue().Equal(v) {
		t.Error("round trip mismatch")
	}
	if _, err := FromValue(idl.IntV(1)); err == nil {
		t.Error("non-record must fail")
	}
}

func TestEventSizesMatchTableOne(t *testing.T) {
	// Table I: SOAP 3898 bytes, SOAP-bin/PBIO 860 bytes, compressed 1264.
	// We assert the *shape*: XML several times binary, compressed between.
	d := populated(t)
	c, err := d.Catering("DL0104")
	if err != nil {
		t.Fatal(err)
	}
	v := c.ToValue()
	binSize, err := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer())).EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	xmlBytes, err := xmlenc.Marshal("return", v)
	if err != nil {
		t.Fatal(err)
	}
	zBytes, err := core.Deflate(xmlBytes)
	if err != nil {
		t.Fatal(err)
	}
	if binSize < 300 || binSize > 3000 {
		t.Errorf("binary event = %d bytes, want same order as the paper's 860", binSize)
	}
	ratio := float64(len(xmlBytes)) / float64(binSize)
	if ratio < 2 {
		t.Errorf("XML/binary ratio = %.2f, paper has ≈4.5", ratio)
	}
	if len(zBytes) >= len(xmlBytes) {
		t.Error("compression must shrink the XML event")
	}
}

func TestServiceHandler(t *testing.T) {
	d := populated(t)
	fs := pbio.NewMemServer()
	srv := core.NewServer(Spec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("getCatering", NewHandler(d))
	client := core.NewClient(Spec(), &core.Loopback{Server: srv}, pbio.NewCodec(pbio.NewRegistry(fs)), core.WireBinary)

	resp, err := client.Call(context.Background(), "getCatering", nil, soap.Param{Name: "flight", Value: idl.StringV("DL0101")})
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromValue(resp.Value)
	if err != nil {
		t.Fatal(err)
	}
	if c.Flight != "DL0101" || len(c.Meals) == 0 {
		t.Errorf("catering = %+v", c)
	}

	if _, err := client.Call(context.Background(), "getCatering", nil, soap.Param{Name: "flight", Value: idl.StringV("nope")}); err == nil {
		t.Error("unknown flight must fault")
	}
}
