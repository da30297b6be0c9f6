package quality

import (
	"context"
	"errors"
	"sync"
	"time"

	"soapbinq/internal/obs"
	"soapbinq/internal/soap"
)

// DefaultAlpha is the exponential-averaging weight most RTT estimators
// use, as the paper notes (R = α·R + (1−α)·M with α = 0.875, following
// RFC 793 / Jacobson-Karels).
const DefaultAlpha = 0.875

// Estimator maintains a smoothed round-trip-time estimate from per-request
// samples, plus a fault-pressure level that penalizes the estimate the
// selector sees (Effective) when calls keep failing. It is safe for
// concurrent use.
type Estimator struct {
	mu       sync.Mutex
	alpha    float64
	label    string // endpoint key, stamped on pressure events
	current  time.Duration
	primed   bool
	samples  int
	excluded int
	pressure int
}

// Fault-pressure bounds. Each pressure unit doubles the effective
// estimate; the cap keeps recovery quick (at most maxFaultPressure
// successful calls back to the true estimate) while a saturated
// penalty of 2^6 = 64× — with at least penaltyFloor as the base, so
// the penalty bites even on links too fast to have primed an estimate —
// is enough to push any sane policy to its smallest message type.
const (
	maxFaultPressure = 6
	penaltyFloor     = time.Millisecond
)

// NewEstimator returns an estimator with the given weight; alpha outside
// (0,1) falls back to DefaultAlpha.
func NewEstimator(alpha float64) *Estimator {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultAlpha
	}
	return &Estimator{alpha: alpha}
}

// Observe folds a new sample into the estimate and returns the updated
// value. The first sample initializes the estimate directly.
func (e *Estimator) Observe(sample time.Duration) time.Duration {
	if sample < 0 {
		sample = 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.primed {
		e.current = sample
		e.primed = true
	} else {
		e.current = time.Duration(e.alpha*float64(e.current) + (1-e.alpha)*float64(sample))
	}
	e.samples++
	qualitySampleNS.RecordDuration(sample)
	if e.pressure > 0 {
		// A successful call releases one unit of fault pressure: the
		// climb back to full quality mirrors the paper's RTT recovery.
		e.pressure--
		e.notePressure()
	}
	return e.current
}

// Estimate returns the current smoothed RTT (zero before any sample).
func (e *Estimator) Estimate() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.current
}

// Samples returns how many observations have been folded in.
func (e *Estimator) Samples() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.samples
}

// ObserveFailure accounts for a failed call without letting it shift the
// estimate. Timed-out and cancelled calls are censored observations —
// their duration measures the caller's budget, not the network — and
// folding them in would drag the estimate toward whatever timeout the
// application happened to configure, destabilizing the adaptation loop.
// Other failures (connection refused, faults) carry no RTT signal at
// all. Either way the estimate itself is untouched; Excluded counts
// them for observability.
//
// Failures that signal trouble reaching the endpoint (PressureError)
// additionally raise the fault-pressure level, inflating Effective so
// the selector degrades toward smaller message types while the
// endpoint struggles. Definitive application faults do not: the
// endpoint answered, the link is fine.
func (e *Estimator) ObserveFailure(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.excluded++
	qualityExcluded.Inc()
	if PressureError(err) && e.pressure < maxFaultPressure {
		e.pressure++
		e.notePressure()
	}
}

// notePressure publishes a fault-pressure change to the process gauge
// and, when tracing is on, the decision-event ring. Called with e.mu
// held; the obs ring has its own lock and never calls back in.
func (e *Estimator) notePressure() {
	qualityPressure.Set(int64(e.pressure))
	if obs.Enabled() {
		obs.Emit(obs.Event{
			Kind:     obs.EventPressure,
			Backend:  e.label,
			Pressure: e.pressure,
			Estimate: e.effectiveLocked(),
		})
	}
}

// SetLabel names the endpoint this estimator tracks; pressure events
// carry it so per-backend degradation is attributable in the decision
// ring. EstimatorRegistry labels its estimators with their key.
func (e *Estimator) SetLabel(label string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.label = label
}

// Pressure returns the current fault-pressure level (0 = healthy).
func (e *Estimator) Pressure() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pressure
}

// ResetPressure clears all fault pressure at once. It is the recovery
// signal when an external authority — active health probes, an
// operator — has verified the endpoint answers again: per-success decay
// would starve there, because pressure-weighted routing no longer sends
// the endpoint the successes it would need to decay. The RTT estimate
// and sample history are kept.
func (e *Estimator) ResetPressure() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pressure == 0 {
		return
	}
	e.pressure = 0
	e.notePressure()
}

// Relax releases one unit of fault pressure. It is the success signal
// for estimators that never fold RTT samples — the server side, whose
// estimate arrives via Set — where Observe's built-in decay never runs.
func (e *Estimator) Relax() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pressure > 0 {
		e.pressure--
		e.notePressure()
	}
}

// Effective returns the estimate the quality selector should consult:
// the smoothed RTT doubled once per fault-pressure unit (with at least
// penaltyFloor as the base, so repeated failures degrade quality even
// before any sample primed the estimate). With zero pressure it equals
// Estimate.
func (e *Estimator) Effective() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.effectiveLocked()
}

// effectiveLocked computes Effective with e.mu already held.
func (e *Estimator) effectiveLocked() time.Duration {
	if e.pressure == 0 {
		return e.current
	}
	base := e.current
	if base < penaltyFloor {
		base = penaltyFloor
	}
	return base << uint(e.pressure)
}

// PressureError reports whether err signals fault pressure on the
// path to the endpoint: deadline expiry (local or served), the
// unavailable family (shed, draining, breaker fast-fail), and
// transport-level failures all do. Cancellations are the caller's
// choice, and any other served fault is a definitive answer from a
// responsive endpoint — neither raises pressure.
func PressureError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, soap.ErrUnavailable) {
		return true
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		return false
	}
	return true
}

// Excluded returns how many failed calls were withheld from the
// estimate.
func (e *Estimator) Excluded() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.excluded
}

// EstimatorSnapshot is one coherent view of an estimator: the smoothed
// and effective estimates plus the sample, exclusion, and pressure
// counters, all read under a single lock hold. Durations are
// nanoseconds when JSON-encoded.
type EstimatorSnapshot struct {
	Estimate  time.Duration `json:"estimate_ns"`
	Effective time.Duration `json:"effective_ns"`
	Samples   int           `json:"samples"`
	Excluded  int           `json:"excluded"`
	Pressure  int           `json:"pressure"`
}

// Snapshot returns an atomically consistent view of the estimator.
// Calling the individual accessors (Estimate, Samples, Excluded,
// Pressure) back to back can interleave with a writer and return a torn
// view — samples from after a failure, pressure from before it — which
// is exactly the kind of off-by-one that misleads an operator reading
// /debug/quality during an incident. Snapshot takes the lock once.
func (e *Estimator) Snapshot() EstimatorSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EstimatorSnapshot{
		Estimate:  e.current,
		Effective: e.effectiveLocked(),
		Samples:   e.samples,
		Excluded:  e.excluded,
		Pressure:  e.pressure,
	}
}

// IsCensored reports whether err marks a call whose duration reflects a
// budget rather than the network: deadline expiry or cancellation,
// locally observed or served back as the corresponding fault code.
func IsCensored(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// Set replaces the estimate outright. The server side uses this when the
// client piggybacks its own estimate on a request (the paper: "the server
// is informed of the new value during the next request").
func (e *Estimator) Set(rtt time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.current = rtt
	e.primed = true
}
