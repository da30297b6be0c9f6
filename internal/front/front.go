// Package front is the fault-tolerant, quality-aware routing tier: a
// proxy that accepts SOAP-bin's framed TCP protocol on one listener (it
// implements core.Processor, so core.ServeTCP serves it) and fans calls
// out to a pool of backend servers.
//
// Envelopes are forwarded verbatim — the front never decodes
// parameters, so its cost per call is a frame copy, a routing decision,
// and the resilience bookkeeping. Per backend it keeps one circuit
// breaker (core.BreakerRegistry) and one quality estimator
// (quality.EstimatorRegistry): routing is least-loaded weighted by the
// effective RTT estimate, so a degraded backend — fault pressure
// doubles its effective estimate per unit — organically receives less
// traffic while healthy backends stay at full fidelity. That is the
// paper's continuous quality loop lifted to the fleet: degradation is
// per backend, never global.
//
// Failure handling follows the repo's provably-not-processed rule:
// served unavailable-family faults (busy, draining) mean the backend
// refused the call before touching it, so the front retries them on
// another backend regardless of idempotency; transport errors may have
// executed, so only operations declared Idempotent fail over. All
// failover is bounded by a token budget (a retry is paid for by prior
// successes) so a fleet-wide outage degrades to fast faults instead of
// a retry storm.
package front

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/core"
	"soapbinq/internal/obs"
	"soapbinq/internal/quality"
	"soapbinq/internal/soap"
	"soapbinq/internal/wsdl"
)

// Config tunes a Front. The zero value of each field selects the
// default noted on it.
type Config struct {
	// Spec declares the routed service; the front consults it only for
	// Idempotent flags (failover eligibility) and the WSDL it serves.
	// Nil means no operation is treated as idempotent.
	Spec *core.ServiceSpec
	// Breaker configures every backend's circuit breaker.
	Breaker core.BreakerConfig
	// Alpha is the per-backend RTT estimator weight. Default
	// quality.DefaultAlpha.
	Alpha float64
	// PoolConns is the multiplexed-connection pool width per backend.
	// Default 4.
	PoolConns int
	// MaxFailover bounds how many additional backends one call may be
	// moved to. Default 2.
	MaxFailover int
	// ForwardTimeout bounds one forwarded attempt, so a gray-failing
	// backend cannot pin a front goroutine past any client's patience.
	// Default 15s.
	ForwardTimeout time.Duration
	// ProbeInterval is the active health-probe period. Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange. Default ProbeInterval/2.
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark an
	// active backend down. Default 3.
	FailThreshold int
	// RecoverThreshold is how many consecutive probe successes bring a
	// down backend back. Default 2.
	RecoverThreshold int
	// RetryBudget is the failover token-bucket capacity. Default 32.
	RetryBudget float64
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = quality.DefaultAlpha
	}
	if c.PoolConns <= 0 {
		c.PoolConns = 4
	}
	if c.MaxFailover <= 0 {
		c.MaxFailover = 2
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 15 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval / 2
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 32
	}
	return c
}

// Front routes calls across a registry of backends. It implements
// core.Processor, so core.ServeTCP(front, addr) exposes it on the wire
// exactly like a Server. Safe for concurrent use.
type Front struct {
	cfg        Config
	breakers   *core.BreakerRegistry
	estimators *quality.EstimatorRegistry
	budget     *retryBudget

	mu       sync.RWMutex
	backends map[string]*backend

	probeCancel context.CancelFunc
	probeDone   chan struct{}
	startOnce   sync.Once
	closeOnce   sync.Once
}

var _ core.Processor = (*Front)(nil)

// New builds a Front with cfg's zero fields defaulted. Call Join to
// add backends and Start to begin health probing.
func New(cfg Config) *Front {
	cfg = cfg.withDefaults()
	return &Front{
		cfg:        cfg,
		breakers:   core.NewBreakerRegistry(cfg.Breaker),
		estimators: quality.NewEstimatorRegistry(cfg.Alpha),
		budget:     newRetryBudget(cfg.RetryBudget),
		backends:   make(map[string]*backend),
	}
}

// Process implements core.Processor: route, forward, fail over, always
// answer with exactly one envelope.
func (f *Front) Process(ctx context.Context, contentType, action string, body []byte) (string, []byte) {
	op, _ := core.RequestOp(contentType, action, body)
	idempotent := false
	if f.cfg.Spec != nil {
		if od, ok := f.cfg.Spec.Ops[op]; ok {
			idempotent = od.Idempotent
		}
	}
	frontRequests.Inc()

	req := &core.WireRequest{ContentType: contentType, Action: action, Body: body}
	tried := make(map[string]bool)
	var lastFault *soap.Fault
	forwards := 0
	prevBackend := ""

	for {
		if err := ctx.Err(); err != nil {
			return core.FaultEnvelope(contentType, op, soap.ContextFault(err))
		}
		b := f.pick(tried)
		if b == nil {
			break
		}
		tried[b.name] = true
		br := f.breakers.For(b.name)
		if err := br.Allow(); err != nil {
			// Fast-fail without an attempt; the next candidate may take
			// the call, so an open breaker costs no failover token.
			lastFault = asFault(err)
			continue
		}
		if forwards > 0 {
			f.noteFailover(prevBackend, b.name, op, lastFault)
		}
		forwards++
		prevBackend = b.name
		est := f.estimators.For(b.name)
		if obs.Enabled() {
			obs.Emit(obs.Event{
				Kind:     obs.EventRoute,
				Side:     "front",
				Op:       op,
				Backend:  b.name,
				Estimate: est.Effective(),
				Pressure: est.Pressure(),
				Attempts: forwards,
			})
		}

		bm := b.metrics
		bm.requests.Inc()
		b.inflight.Add(1)
		bm.inflight.Add(1)
		fctx, cancel := context.WithTimeout(ctx, f.cfg.ForwardTimeout)
		start := time.Now()
		resp, err := b.transport().RoundTrip(fctx, req)
		elapsed := time.Since(start)
		timedOut := errors.Is(fctx.Err(), context.DeadlineExceeded)
		cancel()
		b.inflight.Add(-1)
		bm.inflight.Add(-1)

		if err == nil {
			if code, ok := core.SniffFaultCode(resp.ContentType, resp.Body); ok {
				served := &soap.Fault{Code: code, String: "served fault"}
				if transientServed(served) {
					// The backend's condition, not the application's
					// answer: count it against the backend. Failover is
					// safe unconditionally for provably-not-processed
					// refusals, and for idempotent ops even when the
					// backend may have started (a dying server answers
					// in-flight calls with Cancelled faults).
					bm.failures.Inc()
					br.Record(served)
					est.ObserveFailure(served)
					if (soap.IsNotProcessed(served) || idempotent) &&
						forwards <= f.cfg.MaxFailover && f.budget.allow() {
						bufpool.Put(resp.Body)
						lastFault = served
						continue
					}
					return resp.ContentType, resp.Body
				}
				// An application fault is a healthy exchange whose
				// answer happens to be a fault: pass it through
				// untouched and credit the backend.
			}
			br.Record(nil)
			est.Observe(elapsed)
			f.budget.success()
			return resp.ContentType, resp.Body
		}

		// Transport-level failure: the request may or may not have
		// executed on the backend.
		bm.failures.Inc()
		if timedOut && ctx.Err() == nil {
			// The per-forward timeout fired, not the caller's budget:
			// classify as a deadline against this backend.
			err = fmt.Errorf("front: forward to %s: %w", b.name, context.DeadlineExceeded)
		}
		br.Record(err)
		est.ObserveFailure(err)
		safe := soap.IsNotProcessed(err) // e.g. a draining pool's checkout fault
		if (idempotent || safe) && forwards <= f.cfg.MaxFailover && f.budget.allow() {
			lastFault = asFault(err)
			continue
		}
		return core.FaultEnvelope(contentType, op, asFault(err))
	}

	frontNoBackend.Inc()
	if lastFault == nil {
		lastFault = soap.NoBackendsFault(f.cfg.ProbeInterval)
	}
	return core.FaultEnvelope(contentType, op, lastFault)
}

// pick returns the best untried routable backend: least in-flight load
// weighted by the effective (pressure-inflated) RTT estimate, so sick
// backends organically shed traffic to healthy ones. Returns nil when
// no candidate remains.
func (f *Front) pick(tried map[string]bool) *backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var best *backend
	var bestScore float64
	for _, b := range f.backends {
		if tried[b.name] || b.State() != StateActive {
			continue
		}
		eff := f.estimators.For(b.name).Effective()
		if eff < time.Millisecond {
			// Floor so an unprimed estimator does not look infinitely
			// fast next to a primed sibling.
			eff = time.Millisecond
		}
		score := float64(b.inflight.Load()+1) * float64(eff)
		if best == nil || score < bestScore || (score == bestScore && b.name < best.name) {
			best, bestScore = b, score
		}
	}
	return best
}

// noteFailover records one call moving between backends.
func (f *Front) noteFailover(from, to, op string, cause *soap.Fault) {
	frontFailovers.Inc()
	if !obs.Enabled() {
		return
	}
	detail := ""
	if cause != nil {
		detail = cause.Code
	}
	obs.Emit(obs.Event{
		Kind:    obs.EventFailover,
		Side:    "front",
		Op:      op,
		Backend: to,
		From:    from,
		To:      to,
		Detail:  detail,
	})
}

// transientServed reports whether a served fault reflects the
// backend's condition — unavailable-family refusals, cancellations,
// deadline overruns — rather than the application's answer. Only these
// count against the backend's breaker and estimator or are eligible
// for failover; everything else is the service speaking.
func transientServed(f *soap.Fault) bool {
	return errors.Is(f, soap.ErrUnavailable) ||
		f.Code == soap.FaultCodeCancelled ||
		f.Code == soap.FaultCodeDeadlineExceeded
}

// asFault maps any attempt error to the fault the front would answer
// with: served faults pass through, context ends become their context
// faults, and anything else is an unavailable-family transport fault.
func asFault(err error) *soap.Fault {
	var fault *soap.Fault
	if errors.As(err, &fault) && fault != nil {
		return fault
	}
	if cf := soap.ContextFault(err); cf != nil {
		return cf
	}
	return &soap.Fault{
		Code:   soap.FaultCodeUnavailable,
		String: "backend unreachable",
		Detail: err.Error(),
	}
}

// WSDL renders the service description advertising every active
// backend as a port, sorted by address — the discovery surface sibling
// routers and fleet-aware clients read.
func (f *Front) WSDL() ([]byte, error) {
	if f.cfg.Spec == nil {
		return nil, errors.New("front: no service spec configured")
	}
	f.mu.RLock()
	endpoints := make([]string, 0, len(f.backends))
	for _, b := range f.backends {
		if b.State() == StateActive {
			endpoints = append(endpoints, b.addr)
		}
	}
	f.mu.RUnlock()
	sort.Strings(endpoints)
	return wsdl.GeneratePorts(f.cfg.Spec, endpoints)
}

// RegisterDebug installs the front's live state as a /debug/quality
// source named "front".
func (f *Front) RegisterDebug() {
	obs.RegisterQualitySource("front", func() any { return f.DebugSnapshot() })
}

// DebugSnapshot is the front's /debug/quality payload: per-backend
// lifecycle, load, breaker, and estimator state plus the failover
// budget.
type DebugSnapshot struct {
	Backends []BackendSnapshot `json:"backends"`
	Budget   float64           `json:"retry_budget_tokens"`
}

// DebugSnapshot assembles a coherent view of every backend.
func (f *Front) DebugSnapshot() DebugSnapshot {
	f.mu.RLock()
	names := make([]string, 0, len(f.backends))
	for name := range f.backends {
		names = append(names, name)
	}
	backends := make([]*backend, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		backends = append(backends, f.backends[name])
	}
	f.mu.RUnlock()

	snap := DebugSnapshot{Budget: f.budget.tokensLeft()}
	for _, b := range backends {
		bs := b.snapshot()
		bs.Breaker = f.breakers.For(b.name).State().String()
		bs.Estimator = f.estimators.For(b.name).Snapshot()
		snap.Backends = append(snap.Backends, bs)
	}
	return snap
}
