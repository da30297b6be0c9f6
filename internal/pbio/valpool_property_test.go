package pbio

import (
	"encoding/binary"
	"runtime"
	"testing"

	"soapbinq/internal/idl"
	"soapbinq/internal/workload"
)

// drainSlabPools empties every class pool and returns what it held. Only
// the slabs reachable from the calling goroutine's P come back, which on
// a test's single goroutine is all it filed since the last collection.
func drainSlabPools() [][]idl.Value {
	var slabs [][]idl.Value
	for c := range valPools {
		for {
			box, ok := valPools[c].Get().(*[]idl.Value)
			if !ok {
				break
			}
			slabs = append(slabs, *box)
		}
	}
	return slabs
}

// bulkValues are the values of the slab-pool and sizing properties: what
// workload.Random makes of random types (lists under eight elements, the
// two smallest classes), and lists on both sides of every class boundary
// above 8,192 elements, up to past the top class, of each element shape
// the decoders and Release distinguish — scalars, strings, and elements
// with slabs of their own.
func bulkValues(seed uint64) []idl.Value {
	typ := workload.RandomType(seed)
	vals := []idl.Value{workload.Random(typ, seed^0x5A5A)}
	sizes := []int{8193, 16384, 16385, 32768, 32769, 65536, 65537}
	// One size per seed anywhere in the range, so the set is not only edges.
	sizes = append(sizes, 8193+int(seed*2654435761%60000))
	for i, n := range sizes {
		var elem *idl.Type
		switch (int(seed) + i) % 3 {
		case 0:
			elem = idl.Int()
		case 1:
			elem = idl.Float()
		default:
			elem = idl.Char()
		}
		vals = append(vals, workload.RandomList(elem, n, seed+uint64(i)))
	}
	// Elements that own slabs take the recursive Release; keep these just
	// past the old cap (each element is a slab of its own).
	pair := idl.Struct("Pair", idl.F("k", idl.StringT()), idl.F("xs", idl.List(idl.Int())))
	vals = append(vals,
		workload.RandomList(idl.StringT(), 8193+int(seed%500), seed),
		workload.RandomList(pair, 8193+int(seed%500), seed))
	return vals
}

// TestSlabPoolAllZeroProperty executes the pool invariant valpool.go
// states, for every size class: after decode and Release, each slab the
// pool would hand out next is zero over its whole capacity, in both byte
// orders; a decode that takes those slabs gives the same value again; a
// list the top class holds does come back to the pool, and a larger one
// does not.
func TestSlabPoolAllZeroProperty(t *testing.T) {
	// One P, so that no slab sits in the private slot of a P the drain
	// cannot reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	top := valClassSizes[len(valClassSizes)-1]
	server := NewMemServer()
	receiver := NewCodec(NewRegistry(server))
	for seed := uint64(1); seed <= 3; seed++ {
		for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
			sender := NewCodecOrder(NewRegistry(server), order)
			for _, v := range bulkValues(seed) {
				wire, err := sender.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				drainSlabPools()
				oversize := slabOversize.Value()
				for pass := 0; pass < 2; pass++ { // the second decode takes the first's slabs
					got, err := receiver.Unmarshal(wire)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(v) {
						t.Fatalf("seed %d %s %s pass %d: decoded value differs", seed, order, v.Type, pass)
					}
					Release(&got)
				}
				n := len(v.List)
				filed := false
				for _, s := range drainSlabPools() {
					filed = filed || cap(s) >= n
					for i, e := range s[:cap(s)] {
						if !isZeroValue(e) {
							t.Fatalf("seed %d %s %s (%d elements): pooled slab of %d holds %+v at %d",
								seed, order, v.Type, n, cap(s), e, i)
						}
					}
				}
				if v.Type.Kind != idl.KindList || raceEnabled { // race-mode sync.Pool drops puts at random
					continue
				}
				if n <= top && !filed {
					t.Errorf("seed %d %s: no slab for %d elements came back to the pool", seed, v.Type, n)
				}
				if n > top && (filed || slabOversize.Value() != oversize+2) {
					t.Errorf("seed %d %s: %d elements are past the top class: pooled %v, oversize counted %d times, want 2",
						seed, v.Type, n, filed, slabOversize.Value()-oversize)
				}
			}
		}
	}
}

// TestReusedTreeKeepsSlabsZero: a tree that UnmarshalInto shrinks and
// grows inside its slabs' capacity is, once released, as zero as a fresh
// one — past the length Release walks, too.
func TestReusedTreeKeepsSlabsZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := NewCodec(NewRegistry(NewMemServer()))
	pair := idl.Struct("Pair", idl.F("k", idl.StringT()), idl.F("xs", idl.List(idl.Int())))
	drainSlabPools()
	var into idl.Value
	for _, v := range []idl.Value{
		workload.RandomList(pair, 100, 1), workload.RandomList(pair, 40, 2), workload.RandomList(pair, 70, 3),
		workload.RandomList(idl.Int(), 90, 4), workload.RandomList(idl.Int(), 9000, 5), workload.RandomList(idl.Int(), 10, 6),
	} {
		wire, err := c.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.UnmarshalInto(&into, wire); err != nil {
			t.Fatal(err)
		}
		if !into.Equal(v) {
			t.Fatalf("%s of %d: decoded value differs", v.Type, len(v.List))
		}
	}
	Release(&into)
	for _, s := range drainSlabPools() {
		for i, e := range s[:cap(s)] {
			if !isZeroValue(e) {
				t.Fatalf("pooled slab of %d holds %+v at %d", cap(s), e, i)
			}
		}
	}
}

// TestEncodedSizeProperty: the plan-driven size is the length of the
// encoding, for every generated value in both byte orders.
func TestEncodedSizeProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
			c := NewCodecOrder(NewRegistry(NewMemServer()), order)
			vals := []idl.Value{
				workload.Random(workload.RandomType(seed), seed),
				workload.Random(idl.List(workload.NestedStructType(2)), seed),
			}
			if seed <= 2 {
				vals = bulkValues(seed)
			}
			for _, v := range vals {
				body, err := c.EncodeBody(v)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := c.EncodedSize(v); err != nil || n != len(body) {
					t.Errorf("seed %d %s %s: EncodedSize = %d, %v; encoded %d bytes", seed, order, v.Type, n, err, len(body))
				}
			}
		}
	}
}

// TestHostileListCountTakesNoSlab: a count the remaining bytes cannot
// back is refused before a slab is provisioned, by the plan and by the
// dynamic decoder behind it, whatever size class the count names.
func TestHostileListCountTakesNoSlab(t *testing.T) {
	for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
		c := NewCodecOrder(NewRegistry(NewMemServer()), order)
		for _, elem := range []*idl.Type{idl.Int(), idl.Char(), idl.StringT(), atomType()} {
			wire, err := c.Marshal(workload.RandomList(elem, 4, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, claim := range []uint32{8193, 65536, 65537, 1 << 31} {
				order.PutUint32(wire[headerLen:], claim)
				gets := slabGets.Value()
				if _, err := c.Unmarshal(wire); err == nil {
					t.Fatalf("list<%s> claiming %d elements in %d bytes decoded", elem, claim, len(wire)-headerLen)
				}
				var into idl.Value
				if err := c.UnmarshalInto(&into, wire); err == nil {
					t.Fatalf("list<%s> claiming %d elements decoded into a tree", elem, claim)
				}
				if got := slabGets.Value() - gets; got != 0 {
					t.Errorf("list<%s> claiming %d elements in %d bytes took %d slabs", elem, claim, len(wire)-headerLen, got)
				}
			}
		}
	}
}
