package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns n zeroed Ts in anonymous mapped memory, outside the Go
// heap, and the function that unmaps them. The benchmark keeps its own
// records (latency samples, spans) there: the collector paces itself by the
// live heap, and some workloads hold so little that tens of megabytes of
// records would cut their collection rate several times over — the traced
// run, which holds more, would then beat the untraced one. T must hold no
// pointers. Untouched pages cost nothing, so capacities are generous.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map %d bytes for benchmark records: %w", size, err)
	}
	free := func() {
		_ = syscall.Munmap(mem) // the records are done with; nothing to do about a failed unmap
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), free, nil
}
