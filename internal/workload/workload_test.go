package workload

import (
	"testing"

	"soapbinq/internal/idl"
)

func TestIntArray(t *testing.T) {
	v := IntArray(100)
	if err := v.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(v.List) != 100 {
		t.Fatalf("len = %d", len(v.List))
	}
	if !v.Equal(IntArray(100)) {
		t.Error("IntArray must be deterministic")
	}
	// Values should vary (xorshift, not constant) so compression is honest.
	same := true
	for i := 1; i < len(v.List); i++ {
		if v.List[i].Int != v.List[0].Int {
			same = false
			break
		}
	}
	if same {
		t.Error("IntArray elements are all identical")
	}
	if n := len(IntArray(0).List); n != 0 {
		t.Errorf("IntArray(0) has %d elems", n)
	}
}

func TestNestedStruct(t *testing.T) {
	for _, depth := range []int{1, 2, 5} {
		v := NestedStruct(depth, 3)
		if err := v.Check(); err != nil {
			t.Fatalf("depth %d: Check: %v", depth, err)
		}
		if got := v.Type.Depth(); got < depth {
			t.Errorf("depth %d: type depth %d too shallow", depth, got)
		}
		// Walk the child chain and count levels.
		levels := 1
		cur := v
		for {
			c, ok := cur.Field("child")
			if !ok {
				break
			}
			levels++
			cur = c
		}
		if levels != depth {
			t.Errorf("NestedStruct(%d) has %d levels", depth, levels)
		}
		items, _ := cur.Field("items")
		if len(items.List) != 3 {
			t.Errorf("leaf has %d items", len(items.List))
		}
	}
	if got := NestedStruct(0, 1); got.Type.FieldIndex("child") != -1 {
		t.Error("depth<1 clamps to flat record")
	}
	if !NestedStruct(3, 2).Equal(NestedStruct(3, 2)) {
		t.Error("NestedStruct must be deterministic")
	}
}

func TestNestedStructTypeNames(t *testing.T) {
	t3 := NestedStructType(3)
	if t3.Name != "Order3" {
		t.Errorf("root name = %q", t3.Name)
	}
	child := t3.Fields[t3.FieldIndex("child")].Type
	if child.Name != "Order2" {
		t.Errorf("child name = %q", child.Name)
	}
}

func TestRandomWellTyped(t *testing.T) {
	types := []*idl.Type{
		idl.Int(), idl.Float(), idl.Char(), idl.StringT(),
		idl.List(idl.StringT()),
		NestedStructType(3),
		idl.List(idl.List(idl.Int())),
	}
	for _, typ := range types {
		for seed := uint64(0); seed < 5; seed++ {
			v := Random(typ, seed)
			if err := v.Check(); err != nil {
				t.Errorf("Random(%s, %d): %v", typ, seed, err)
			}
		}
	}
	if !Random(NestedStructType(2), 7).Equal(Random(NestedStructType(2), 7)) {
		t.Error("Random must be deterministic per seed")
	}
	if Random(idl.Int(), 1).Equal(Random(idl.Int(), 2)) {
		t.Error("different seeds should differ (int)")
	}
}

func TestRandomList(t *testing.T) {
	elem := idl.Struct("P", idl.F("id", idl.Int()), idl.F("tags", idl.List(idl.StringT())))
	v := RandomList(elem, 9000, 5)
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	if len(v.List) != 9000 || !v.Equal(RandomList(elem, 9000, 5)) || v.Equal(RandomList(elem, 9000, 6)) {
		t.Error("RandomList must have exactly n elements and be deterministic per seed")
	}
}

func TestRandomDepthBound(t *testing.T) {
	// Deeply nested list types must terminate with bounded size.
	typ := idl.List(idl.List(idl.List(idl.List(idl.List(idl.List(idl.Int()))))))
	v := Random(typ, 3)
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestItoa(t *testing.T) {
	for n, want := range map[int]string{0: "0", 7: "7", 10: "10", 123456: "123456"} {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}
