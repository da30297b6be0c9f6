package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"soapbinq/internal/soap"
)

// slices is how many equal parts a measured window is cut into; timing
// metrics are the median over the parts, which rides out a noisy neighbour
// that a whole-window figure would absorb.
const slices = 5

// sample is one completed, verified call.
type sample struct {
	end   int64 // ns since the window began
	lat   int64 // wall time of the Call, ns
	rtt   int64 // CallStats.RoundTripTime, the quality loop's input, ns
	bytes int32 // request + response envelope bytes
	kind  uint8 // kind*maxVariants + variant
}

// maxSamples is each caller's sample capacity: 100 s of the fastest
// workload's calls.
const maxSamples = 1 << 21

// window is what one timed stretch of closed-loop load produced.
type window struct {
	dur       time.Duration
	samples   [numCallers][]sample // off the Go heap; nil in a warm-up
	free      []func()
	attempted int64
	failed    int64
	firstErr  error
	attempts  int64 // transport attempts, summed over calls

	cpu        time.Duration // process user+sys
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapPeak   uint64 // sampled at 10 Hz in a traced run; 0 otherwise
}

func (w *window) completed() int {
	n := 0
	for _, s := range w.samples {
		n += len(s)
	}
	return n
}

// call makes one call of kind kindIdx as caller c and checks the reply. When
// traced, it records the client-side spans under call number seq.
func (r *rig) call(ctx context.Context, c int, kindIdx uint8, deep, traced bool, seq uint32) (sample, int, error) {
	kind := &r.kinds[kindIdx]
	var (
		hdr         soap.Header
		ct          *clientTrace
		root, inner uint32
	)
	if traced {
		root = r.tr.reserve()
		inner = root
		if r.manager != nil {
			inner = r.tr.reserve()
		}
		ct = &clientTrace{call: seq, cur: inner}
		ctx = context.WithValue(ctx, clientTraceKey{}, ct)
		hdr = soap.Header{callHeader: strconv.FormatUint(uint64(seq), 10)}
	}
	start := time.Now()
	resp, err := r.clients[c].Call(ctx, kind.op, hdr, kind.params...)
	lat := time.Since(start)
	if err != nil {
		return sample{}, 0, err
	}
	variant, err := kind.check(resp, deep)
	flat := kindIdx*maxVariants + variant
	st := resp.Stats
	resp.Release()
	if err != nil {
		return sample{}, st.Attempts, err
	}
	if traced {
		t0 := int64(start.Sub(r.tr.epoch))
		// The stages core.Client times itself sit around the transport span.
		encStart := ct.tStart - int64(st.MarshalTime)
		decEnd := ct.tEnd + int64(st.UnmarshalTime)
		coreSpan := span{layer: layerCoreClient, kind: flat, call: ct.call, start: t0, end: t0 + int64(lat)}
		if r.manager != nil {
			r.tr.set(root, span{layer: layerQualityClient, kind: flat, call: ct.call, start: t0, end: t0 + int64(lat)})
			coreSpan.parent, coreSpan.start, coreSpan.end = root, encStart, decEnd
		}
		r.tr.set(inner, coreSpan)
		r.tr.set(r.tr.reserve(), span{layer: layerClientEncode, call: ct.call, parent: inner, start: encStart, end: ct.tStart})
		r.tr.set(r.tr.reserve(), span{layer: layerClientDecode, call: ct.call, parent: inner, start: ct.tEnd, end: decEnd})
	}
	return sample{
		lat:   int64(lat),
		rtt:   int64(st.RoundTripTime),
		bytes: int32(st.RequestBytes + st.ResponseBytes),
		kind:  flat,
	}, st.Attempts, nil
}

// release unmaps the window's samples.
func (w *window) release() {
	for _, free := range w.free {
		free()
	}
	w.samples = [numCallers][]sample{}
}

// warmUp runs the callers for dur and keeps no samples.
func (r *rig) warmUp(ctx context.Context, dur time.Duration) error {
	if w := r.run(ctx, &window{dur: dur}, false); w.failed > 0 {
		return fmt.Errorf("warm-up: %w", w.firstErr)
	}
	return nil
}

// measure runs the callers for dur and keeps every call's sample; the caller
// releases the window.
func (r *rig) measure(ctx context.Context, dur time.Duration, traced bool) (*window, error) {
	w := &window{dur: dur}
	for c := range w.samples {
		buf, free, err := offHeap[sample](maxSamples)
		if err != nil {
			w.release()
			return nil, err
		}
		w.samples[c], w.free = buf[:0], append(w.free, free)
	}
	return r.run(ctx, w, traced), nil
}

// run drives the rig's callers in a closed loop for w.dur. Each caller checks
// its first reply deeply, and makes one more deeply checked call once the
// window has closed (counted as attempted, not as a sample). A caller whose
// sample buffer is full counts further calls as failed. A traced run also
// samples the heap.
func (r *rig) run(ctx context.Context, w *window, traced bool) *window {
	dur := w.dur
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := cpuTime()
	stopHeap := func() uint64 { return 0 }
	if traced {
		stopHeap = sampleHeapPeak()
	}

	var mu sync.Mutex // guards the window's counters
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < numCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				samples           = w.samples[c]
				attempted, failed int64
				attempts          int64
				firstErr          error
			)
			for n := uint64(0); ; n++ {
				closed := time.Since(start) >= dur
				s, tries, err := r.call(ctx, c, r.next(c, n), n == 0 || closed, traced && !closed, uint32(n)*numCallers+uint32(c)+1)
				attempted++
				attempts += int64(tries)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				} else if !closed && samples != nil {
					if len(samples) == cap(samples) {
						failed++
						firstErr = fmt.Errorf("sample buffer full after %d calls: shorten -seconds", len(samples))
						break
					}
					s.end = int64(time.Since(start))
					samples = append(samples, s)
				}
				if closed {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			w.samples[c] = samples
			w.attempted += attempted
			w.failed += failed
			w.attempts += attempts
			if w.firstErr == nil {
				w.firstErr = firstErr
			}
		}(c)
	}
	wg.Wait()

	w.heapPeak = stopHeap()
	w.cpu = cpuTime() - cpuBefore
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.mallocs = after.Mallocs - before.Mallocs
	w.gcCycles = after.NumGC - before.NumGC
	w.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return w
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeapPeak samples the heap in use at 10 Hz until the returned
// function is called, which reports the peak.
func sampleHeapPeak() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var max uint64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-tick.C:
			case <-done:
				peak <- max
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// timing is the slice-median view of a window.
type timing struct {
	callsPerS, p50, p95, mbPerS float64 // medians over the slices; µs and MB/s
	p99, max                    float64 // whole window, µs
	minSliceSamples             int
}

func (w *window) timing() (timing, error) {
	var lats [slices][]float64
	var bytes [slices]int64
	var all []float64
	sliceLen := int64(w.dur) / slices
	for _, samples := range w.samples {
		for _, s := range samples {
			i := int(s.end / sliceLen)
			if i >= slices {
				i = slices - 1
			}
			us := float64(s.lat) / 1e3
			lats[i] = append(lats[i], us)
			bytes[i] += int64(s.bytes)
			all = append(all, us)
		}
	}
	if len(all) == 0 {
		if w.firstErr != nil {
			return timing{}, fmt.Errorf("no call completed: %w", w.firstErr)
		}
		return timing{}, fmt.Errorf("no call completed in %v", w.dur)
	}
	var rates, p50s, p95s, mbs []float64
	t := timing{minSliceSamples: math.MaxInt}
	secs := float64(sliceLen) / 1e9
	for i := range lats {
		if len(lats[i]) < t.minSliceSamples {
			t.minSliceSamples = len(lats[i])
		}
		rates = append(rates, float64(len(lats[i]))/secs)
		mbs = append(mbs, float64(bytes[i])/1e6/secs)
		if len(lats[i]) == 0 {
			continue
		}
		sort.Float64s(lats[i])
		p50s = append(p50s, quantile(lats[i], 0.50))
		p95s = append(p95s, quantile(lats[i], 0.95))
	}
	sort.Float64s(all)
	t.callsPerS, t.mbPerS = median(rates), median(mbs)
	t.p50, t.p95 = median(p50s), median(p95s)
	t.p99, t.max = quantile(all, 0.99), all[len(all)-1]
	return t, nil
}

// quantile of sorted values, nearest rank.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
