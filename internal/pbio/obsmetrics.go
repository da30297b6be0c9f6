package pbio

import "soapbinq/internal/obs"

// Value-slab pool counters, the decode-side mirror of bufpool's buffer
// series. Always on and allocation-free per operation; the hit ratio
// tells whether decoded trees are flowing back through Release or
// leaking to the garbage collector (see OPERATIONS.md).
var (
	slabGets = obs.NewCounter("soapbinq_pool_slab_gets_total",
		"value-slab requests served by the decoder pool (all classes)")
	slabHits = obs.NewCounter("soapbinq_pool_slab_hits_total",
		"value-slab requests satisfied by a pooled slab")
	slabPuts = obs.NewCounter("soapbinq_pool_slab_puts_total",
		"value slabs returned to the pool by Release")
	slabOversize = obs.NewCounter("soapbinq_pool_slab_oversize_total",
		"value-slab requests above the largest class (allocated at exact size, dropped on Release)")
)
