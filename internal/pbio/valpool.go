package pbio

import (
	"sync"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/idl"
)

// Value-slab pooling: the decode-side counterpart of bufpool.
//
// Profiling the echo round trip shows the dominant per-call allocation
// is not wire bytes but the []idl.Value slabs the decoders provision for
// list elements and struct fields — one slab per composite per message.
// Those slabs follow the same transfer-of-ownership discipline as
// bufpool buffers (see that package's ownership rules): the decoder
// Gets them, the decoded tree's owner may hand the whole tree back with
// Release once its lifetime is known, and Release is always optional —
// a tree that escapes to an owner with an unknown lifetime is simply
// left to the garbage collector.
//
// Pool invariant: every slab in the pool is fully zero. Release zeroes
// each element (recursively) before filing the containing slab, so a
// slab handed out by getValues carries no stale pointers — in
// particular, no element's Fields/List can still reference a slab that
// is itself in the pool, which is what keeps the decoders' cap-based
// slab reuse free of double ownership.

// valClassSizes are the slab size classes in elements. An idl.Value is 96
// bytes, so one pooled slab retains at most:
//
//	class (elements)    16     128    1024   8192    16384    32768   65536
//	bytes per slab    1.5 KiB 12 KiB 96 KiB 768 KiB 1.5 MiB  3 MiB   6 MiB
//
// A pool miss allocates the whole class, not the n asked for, so above
// 8,192 elements the classes step by 2x at most: a miss then costs less
// than twice the slab the message needs (the 8x steps below that are a
// few hundred KiB at worst). The top class holds the bulk arrays of the
// paper's Fig. 4/5 (65,536 elements, 512 KB on the wire); requests above
// it are allocated at their exact size, counted in
// soapbinq_pool_slab_oversize_total, and dropped on Release.
//
// Nothing here adds retention of its own: the classes are sync.Pools, so
// a class holds no more slabs than were released since the last garbage
// collection — in steady state, the trees that were live at once — and
// the runtime drops every pooled slab within two collection cycles of
// its last use.
var valClassSizes = [...]int{16, 128, 1024, 8192, 16384, 32768, 65536}

var valPools [len(valClassSizes)]sync.Pool

// valBoxes recycles the *[]idl.Value headers the class pools store.
// Putting &local into a sync.Pool heap-allocates the escaping slice
// header on every call; recycling the boxes (a pointer-to-interface
// conversion is allocation-free) keeps the put/get cycle itself at zero
// allocations, which is the whole point of the pool.
var valBoxes sync.Pool

// getValues returns a length-n value slab, pooled when a class fits and
// pooling is enabled (bufpool.SetEnabled governs both pools).
func getValues(n int) []idl.Value {
	if n < 0 {
		n = 0
	}
	slabGets.Inc()
	c := -1
	for i, s := range valClassSizes {
		if n <= s {
			c = i
			break
		}
	}
	if c < 0 {
		slabOversize.Inc()
	}
	if c < 0 || !bufpool.Enabled() {
		return make([]idl.Value, n)
	}
	if box, ok := valPools[c].Get().(*[]idl.Value); ok {
		s := *box
		*box = nil
		valBoxes.Put(box)
		slabHits.Inc()
		return s[:n]
	}
	return make([]idl.Value, n, valClassSizes[c])
}

// reuseValues reslices s, which holds at least n, to n elements for a
// decode into a tree the caller already owns. The elements a shrink cuts
// off are released here: Release visits a slab up to its length only, so
// a slab must be zero beyond it to be all-zero when filed.
func reuseValues(s []idl.Value, n int) []idl.Value {
	for i := n; i < len(s); i++ {
		Release(&s[i])
	}
	return s[:n]
}

// putValues files a slab under the largest class its capacity serves.
// Undersized and oversized slabs are dropped.
func putValues(s []idl.Value) {
	if s == nil || !bufpool.Enabled() {
		return
	}
	c := cap(s)
	if c > valClassSizes[len(valClassSizes)-1] {
		return
	}
	for i := len(valClassSizes) - 1; i >= 0; i-- {
		if c >= valClassSizes[i] {
			box, ok := valBoxes.Get().(*[]idl.Value)
			if !ok {
				box = new([]idl.Value)
			}
			*box = s[:0]
			valPools[i].Put(box)
			slabPuts.Inc()
			return
		}
	}
}

// Release returns v's value slabs — its list elements and struct fields,
// recursively — to the decoder's pool and zeroes v. It is the tree-level
// Put: call it once, from the tree's sole owner, when nothing can touch
// the tree again (ownership rules 3 and 4 in package bufpool). Trees
// that alias each other (a handler returning one of its params) must be
// released at most once, through whichever alias the owner holds.
//
// Release walks only the members v.Type selects and zeroes as it goes,
// maintaining the all-zero pool invariant above. A list whose declared
// element type is a scalar or a string owns no slab below its own, so it
// is zeroed in one clear, not element by element. Decoded trees are
// always safe to release; a hand-built tree is too, unless it aliases a
// slab at two positions (then the pool would hand the shared slab to
// two future owners) — don't release those.
func Release(v *idl.Value) {
	if v == nil || v.Type == nil {
		return
	}
	switch v.Type.Kind {
	case idl.KindList:
		if e := v.Type.Elem; e != nil && (e.Kind == idl.KindList || e.Kind == idl.KindStruct) {
			for i := range v.List {
				Release(&v.List[i])
			}
		} else {
			clear(v.List)
		}
		putValues(v.List)
	case idl.KindStruct:
		for i := range v.Fields {
			Release(&v.Fields[i])
		}
		putValues(v.Fields)
	}
	*v = idl.Value{}
}
