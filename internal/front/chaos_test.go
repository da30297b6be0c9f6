// Chaos e2e suite for the front router: real backends on real sockets,
// hundreds of concurrent callers through a served Front, and the
// scenario family from the fault model — backend death mid-flight,
// flapping, gray failure (blackhole), drain-under-load, and partition
// (refused exchanges). The invariant under every scenario: idempotent
// calls see zero non-fault client errors, degradation is per backend
// (never global), and a recovered backend returns to full quality.
// Run via `make chaos-front`.
package front_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/faultinject"
	"soapbinq/internal/front"
	"soapbinq/internal/idl"
	"soapbinq/internal/obs"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
)

// chaosFrontConfig is the shared tuning for the chaos rigs: probes fast
// enough to detect death within a few hundred milliseconds, a forward
// timeout short enough that a blackholed backend costs a caller well
// under a second, and a failover budget sized to the caller count so a
// single backend's death never starves concurrent failovers.
func chaosFrontConfig() front.Config {
	return front.Config{
		Spec:             frontSpec(),
		PoolConns:        8,
		MaxFailover:      3,
		ForwardTimeout:   2 * time.Second,
		ProbeInterval:    80 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		FailThreshold:    3,
		RecoverThreshold: 2,
		RetryBudget:      1024,
	}
}

// loadGen drives op against the client from n concurrent callers until
// stopped, recording every error.
type loadGen struct {
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	calls    atomic.Int64
	errCount atomic.Int64
	firstErr atomic.Value
}

func startLoad(t *testing.T, client *core.Client, n int, ops []string) *loadGen {
	t.Helper()
	g := &loadGen{stop: make(chan struct{})}
	// Stop on cleanup too: a t.Fatal mid-scenario must not leak callers
	// that spin hot against the closing rig and starve later tests.
	t.Cleanup(g.halt)
	for i := 0; i < n; i++ {
		op := ops[i%len(ops)]
		g.wg.Add(1)
		go func(op string, seed int64) {
			defer g.wg.Done()
			for v := seed; ; v++ {
				select {
				case <-g.stop:
					return
				default:
				}
				g.calls.Add(1)
				if err := callOp(client, op, v); err != nil {
					g.errCount.Add(1)
					g.firstErr.CompareAndSwap(nil, fmt.Sprintf("%s: %v", op, err))
				}
			}
		}(op, int64(i)<<32)
	}
	return g
}

func (g *loadGen) halt() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

func (g *loadGen) stopAndCheck(t *testing.T) {
	t.Helper()
	g.halt()
	if n := g.errCount.Load(); n != 0 {
		t.Errorf("%d/%d client calls failed; first: %v", n, g.calls.Load(), g.firstErr.Load())
	}
}

// eventCollector polls the decision ring fast enough to observe events
// before the route-event churn of a loaded front overwrites them.
type eventCollector struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	seen map[uint64]obs.Event
}

func collectEvents(t *testing.T) *eventCollector {
	t.Helper()
	prev := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
	c := &eventCollector{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		seen: make(map[uint64]obs.Event),
	}
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			c.mu.Lock()
			for _, e := range obs.Events() {
				c.seen[e.Seq] = e
			}
			c.mu.Unlock()
			select {
			case <-c.stop:
				return
			case <-ticker.C:
			}
		}
	}()
	t.Cleanup(func() {
		select {
		case <-c.done:
		default:
			close(c.stop)
			<-c.done
		}
	})
	return c
}

func (c *eventCollector) events() []obs.Event {
	select {
	case <-c.done:
	default:
		close(c.stop)
		<-c.done
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]obs.Event, 0, len(c.seen))
	for _, e := range c.seen {
		out = append(out, e)
	}
	return out
}

// backendRow polls DebugSnapshot for one backend's row.
func backendRow(f *front.Front, name string) (front.BackendSnapshot, bool) {
	for _, b := range f.DebugSnapshot().Backends {
		if b.Name == name {
			return b, true
		}
	}
	return front.BackendSnapshot{}, false
}

// waitBackend polls until cond holds for the named backend's snapshot
// row, failing the test at the deadline.
func waitBackend(t *testing.T, f *front.Front, name, what string, deadline time.Duration, cond func(front.BackendSnapshot) bool) front.BackendSnapshot {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		row, ok := backendRow(f, name)
		if ok && cond(row) {
			return row
		}
		if time.Now().After(end) {
			t.Fatalf("backend %s never reached %q; last row: %+v", name, what, row)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newChaosRig builds n live backends joined to a started front and
// returns them with a pooled client through the front.
func newChaosRig(t *testing.T, fs *pbio.MemServer, cfg front.Config, prefix string, n int) (*front.Front, []*beRig, *core.Client) {
	t.Helper()
	f := front.New(cfg)
	t.Cleanup(f.Close)
	rigs := make([]*beRig, n)
	for i := range rigs {
		rigs[i] = startBackend(t, fs, fmt.Sprintf("%s-%d", prefix, i))
		rigs[i].delayNS.Store(int64(10 * time.Millisecond))
		if err := f.Join(rigs[i].name, rigs[i].ln.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	return f, rigs, newFrontClient(t, fs, f)
}

// TestFrontChaosBackendDeath is the acceptance scenario: four backends,
// 256 concurrent callers through the front, one backend killed
// mid-run. Requirements pinned here: zero non-fault client errors for
// the idempotent op, degradation confined to the dead backend (its
// fault pressure rises, the healthy fleet's stays at zero), the
// decision ring carries per-backend route/failover/state events, and
// after the backend restarts it recovers to full quality — active,
// breaker closed, pressure drained.
func TestFrontChaosBackendDeath(t *testing.T) {
	fs := pbio.NewMemServer()
	f, rigs, client := newChaosRig(t, fs, chaosFrontConfig(), "death", 4)
	collector := collectEvents(t)

	gen := startLoad(t, client, 256, []string{"echo"})
	time.Sleep(400 * time.Millisecond) // warm every backend

	victim := rigs[0]
	victim.ln.Close() // mid-flight kill: in-flight forwards die with the conns

	waitBackend(t, f, victim.name, "down", 5*time.Second,
		func(b front.BackendSnapshot) bool { return b.State == "down" })

	// Degradation must be per backend: the victim's fault pressure rose,
	// the healthy fleet's never did. The level the victim is left at when
	// routing stops depends on how its last answers and its first
	// failures interleaved (each success relaxes one step), so "rose" is
	// also read off the pressure events in the decision ring below.
	victimPressured := false
	snap := f.DebugSnapshot()
	for _, b := range snap.Backends {
		if b.Name == victim.name {
			victimPressured = b.Estimator.Pressure > 0
		} else if b.Estimator.Pressure != 0 {
			t.Errorf("healthy backend %s inherited fault pressure %d", b.Name, b.Estimator.Pressure)
		}
	}

	healthyBefore := rigs[1].handled.Load() + rigs[2].handled.Load() + rigs[3].handled.Load()
	time.Sleep(300 * time.Millisecond) // run degraded: healthy trio absorbs the load
	if after := rigs[1].handled.Load() + rigs[2].handled.Load() + rigs[3].handled.Load(); after == healthyBefore {
		t.Error("healthy backends absorbed no load while the victim was down")
	}

	victim.restart(t)
	waitBackend(t, f, victim.name, "active", 10*time.Second,
		func(b front.BackendSnapshot) bool { return b.State == "active" })
	revived := victim.handled.Load()
	// Full quality: breaker closed and pressure decayed by real traffic.
	waitBackend(t, f, victim.name, "full quality", 10*time.Second, func(b front.BackendSnapshot) bool {
		return b.State == "active" && b.Breaker == "closed" && b.Estimator.Pressure == 0
	})

	// Traffic must come back to it; "full quality" can hold from the
	// instant of revival, so wait for a call rather than stop the load
	// in the same breath.
	for end := time.Now().Add(10 * time.Second); victim.handled.Load() == revived; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("revived backend received no traffic after recovery")
		}
	}
	gen.stopAndCheck(t)
	for _, rig := range rigs {
		if rig.handled.Load() == 0 {
			t.Errorf("backend %s handled nothing", rig.name)
		}
	}

	events := collector.events()
	var sawDown, sawUp, sawFailover bool
	routeBackends := map[string]bool{}
	for _, e := range events {
		switch e.Kind {
		case obs.EventBackendState:
			if e.Backend == victim.name && e.To == "down" {
				sawDown = true
			}
			if e.Backend == victim.name && e.To == "active" {
				sawUp = true
			}
		case obs.EventFailover:
			if e.From == victim.name {
				sawFailover = true
			}
		case obs.EventRoute:
			routeBackends[e.Backend] = true
		case obs.EventPressure:
			if e.Backend == victim.name {
				victimPressured = victimPressured || e.Pressure > 0
			} else if strings.HasPrefix(e.Backend, "death-") {
				t.Errorf("pressure event for healthy backend %s: %+v", e.Backend, e)
			}
		}
	}
	if !victimPressured {
		t.Errorf("dead backend %s never showed fault pressure", victim.name)
	}
	if !sawDown || !sawUp {
		t.Errorf("decision ring missing state transitions for %s: down=%v up=%v", victim.name, sawDown, sawUp)
	}
	if !sawFailover {
		t.Error("decision ring recorded no failover away from the dead backend")
	}
	if len(routeBackends) < 2 || routeBackends[""] {
		t.Errorf("route events not per-backend: %v", routeBackends)
	}
}

// TestFrontChaosFlap kills and restarts the same backend three times
// under load. The front must ride every cycle without surfacing a
// single client error for the idempotent op.
func TestFrontChaosFlap(t *testing.T) {
	fs := pbio.NewMemServer()
	f, rigs, client := newChaosRig(t, fs, chaosFrontConfig(), "flap", 4)

	gen := startLoad(t, client, 64, []string{"echo"})
	time.Sleep(200 * time.Millisecond)

	victim := rigs[1]
	for cycle := 0; cycle < 3; cycle++ {
		victim.ln.Close()
		waitBackend(t, f, victim.name, "down", 5*time.Second,
			func(b front.BackendSnapshot) bool { return b.State == "down" })
		victim.restart(t)
		waitBackend(t, f, victim.name, "active", 10*time.Second,
			func(b front.BackendSnapshot) bool { return b.State == "active" })
	}
	waitBackend(t, f, victim.name, "full quality", 10*time.Second, func(b front.BackendSnapshot) bool {
		return b.State == "active" && b.Breaker == "closed" && b.Estimator.Pressure == 0
	})
	gen.stopAndCheck(t)
}

// TestFrontChaosGrayFailure puts one backend behind a blackhole
// listener from the start: its port accepts every connection and the
// service behind it never sees a byte. A dial-based health check would
// call it healthy forever; the front's full-exchange probes must take
// it down, and callers must never see an error — blackholed forwards
// end at the forward timeout and fail over.
func TestFrontChaosGrayFailure(t *testing.T) {
	fs := pbio.NewMemServer()
	cfg := chaosFrontConfig()
	cfg.ForwardTimeout = 300 * time.Millisecond
	cfg.ProbeTimeout = 150 * time.Millisecond

	f := front.New(cfg)
	t.Cleanup(f.Close)

	// Three honest backends.
	rigs := make([]*beRig, 3)
	for i := range rigs {
		rigs[i] = startBackend(t, fs, fmt.Sprintf("gray-%d", i))
		rigs[i].delayNS.Store(int64(5 * time.Millisecond))
		if err := f.Join(rigs[i].name, rigs[i].ln.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	// One gray backend: a real server behind an all-blackhole listener.
	const grayName = "gray-hole"
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hole := &faultinject.Listener{
		Listener: inner,
		Plan:     faultinject.Seeded(7, map[faultinject.Kind]float64{faultinject.Blackhole: 1}),
	}
	grayServer, grayHandled := grayBackendServer(t, fs)
	ln := core.ServeTCPListener(grayServer, hole)
	t.Cleanup(func() { ln.Close() })
	if err := f.Join(grayName, inner.Addr().String()); err != nil {
		t.Fatal(err)
	}
	f.Start()
	client := newFrontClient(t, fs, f)

	gen := startLoad(t, client, 64, []string{"echo"})
	waitBackend(t, f, grayName, "down", 10*time.Second,
		func(b front.BackendSnapshot) bool { return b.State == "down" })
	time.Sleep(300 * time.Millisecond) // steady state after eviction
	gen.stopAndCheck(t)

	if n := grayHandled.Load(); n != 0 {
		t.Errorf("gray backend's service handled %d calls through a blackhole", n)
	}
	row, _ := backendRow(f, grayName)
	if row.Estimator.Pressure == 0 {
		t.Error("gray backend shows no fault pressure")
	}
	for _, rig := range rigs {
		r, _ := backendRow(f, rig.name)
		if r.Estimator.Pressure != 0 {
			t.Errorf("healthy backend %s inherited pressure %d from the gray one", rig.name, r.Estimator.Pressure)
		}
	}
}

// grayBackendServer is a spec-compatible server with its own handled
// counter, used behind the blackhole listener.
func grayBackendServer(t *testing.T, fs *pbio.MemServer) (*core.Server, *atomic.Int64) {
	t.Helper()
	srv := core.NewServer(frontSpec(), pbio.NewCodec(pbio.NewRegistry(fs)))
	var handled atomic.Int64
	srv.MustHandle("echo", func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
		handled.Add(1)
		return params[0].Value, nil
	})
	return srv, &handled
}

// TestFrontChaosDrainUnderLoad drains one backend while mixed
// idempotent and non-idempotent traffic flows. Draining-pool checkout
// faults are provably-not-processed, so even the non-idempotent op must
// fail over cleanly: zero client errors, drain completes, and the
// drained backend receives nothing afterwards.
func TestFrontChaosDrainUnderLoad(t *testing.T) {
	fs := pbio.NewMemServer()
	f, rigs, client := newChaosRig(t, fs, chaosFrontConfig(), "drain", 4)

	gen := startLoad(t, client, 64, []string{"echo", "put"})
	time.Sleep(200 * time.Millisecond)

	victim := rigs[2]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx, victim.name); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	waitBackend(t, f, victim.name, "drained", time.Second,
		func(b front.BackendSnapshot) bool { return b.State == "drained" })

	settled := victim.handled.Load()
	time.Sleep(300 * time.Millisecond)
	if after := victim.handled.Load(); after != settled {
		t.Errorf("drained backend kept receiving calls: %d -> %d", settled, after)
	}
	gen.stopAndCheck(t)
}

// TestFrontChaosPartition puts one backend behind a refuse-everything
// listener mid-run: dials succeed and every exchange dies before a
// byte, the shape of an L4 partition with the port still answering.
// Probes must evict it and idempotent callers must see zero errors.
func TestFrontChaosPartition(t *testing.T) {
	fs := pbio.NewMemServer()
	cfg := chaosFrontConfig()
	f, rigs, client := newChaosRig(t, fs, cfg, "part", 3)

	// Partitioned backend joins healthy, then its listener is swapped
	// for a refusing one on the same address.
	part := startBackend(t, fs, "part-cut")
	part.delayNS.Store(int64(5 * time.Millisecond))
	if err := f.Join(part.name, part.ln.Addr()); err != nil {
		t.Fatal(err)
	}

	gen := startLoad(t, client, 64, []string{"echo"})
	time.Sleep(200 * time.Millisecond)

	addr := part.ln.Addr()
	part.ln.Close()
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	refuser := &faultinject.Listener{
		Listener: inner,
		Plan:     faultinject.Seeded(11, map[faultinject.Kind]float64{faultinject.Refuse: 1}),
	}
	ln := core.ServeTCPListener(part.srv, refuser)
	t.Cleanup(func() { ln.Close() })

	waitBackend(t, f, part.name, "down", 10*time.Second,
		func(b front.BackendSnapshot) bool { return b.State == "down" })
	time.Sleep(300 * time.Millisecond)
	gen.stopAndCheck(t)

	for _, rig := range rigs {
		r, _ := backendRow(f, rig.name)
		if r.Estimator.Pressure != 0 {
			t.Errorf("healthy backend %s inherited pressure %d from the partition", rig.name, r.Estimator.Pressure)
		}
	}
}
