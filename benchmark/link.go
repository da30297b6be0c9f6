package main

import (
	"context"
	"math/rand"
	"time"

	"soapbinq/internal/core"
)

// The modelled WAN link of quality_image_wan: every round trip costs two
// one-way latencies plus the serialization time of both envelopes at the
// bandwidth the schedule gives for that moment.
const (
	linkOneWay   = time.Millisecond
	linkHighMbit = 32
	linkLowMbit  = 8
)

// linkDelay is the modelled round-trip delay of wireBytes at mbit Mbit/s.
func linkDelay(wireBytes, mbit int) time.Duration {
	return 2*linkOneWay + time.Duration(wireBytes)*8*time.Second/(time.Duration(mbit)*1e6)
}

// dwells are the lengths of the stretches the link spends at one bandwidth.
// A cycle starts at the high bandwidth and gives each bandwidth every dwell
// once, in a seeded order, so it is 10 s long and spends exactly half of it
// at each bandwidth whatever the seed: only the order of the steps changes,
// not how many there are, how long the link is slow, or what the first call
// of a run meets. A draw of free dwell lengths would move full_quality_share
// by several points from seed to seed.
var dwells = []time.Duration{1000 * time.Millisecond, 1100 * time.Millisecond, 1400 * time.Millisecond, 1500 * time.Millisecond}

type linkStep struct {
	from time.Duration // offset into the cycle
	mbit int
}

// bwSchedule is a cyclic, seeded bandwidth step function.
type bwSchedule struct {
	steps  []linkStep
	period time.Duration
}

func newSchedule(seed uint64) *bwSchedule {
	rng := rand.New(rand.NewSource(int64(seed)))
	high := append([]time.Duration(nil), dwells...)
	low := append([]time.Duration(nil), dwells...)
	rng.Shuffle(len(high), func(i, j int) { high[i], high[j] = high[j], high[i] })
	rng.Shuffle(len(low), func(i, j int) { low[i], low[j] = low[j], low[i] })
	s := &bwSchedule{}
	for i := range high {
		s.steps = append(s.steps, linkStep{s.period, linkHighMbit})
		s.period += high[i]
		s.steps = append(s.steps, linkStep{s.period, linkLowMbit})
		s.period += low[i]
	}
	return s
}

// at returns the bandwidth at offset t from the schedule's origin; the
// schedule repeats in both directions.
func (s *bwSchedule) at(t time.Duration) int {
	t %= s.period
	if t < 0 {
		t += s.period
	}
	mbit := s.steps[0].mbit
	for _, st := range s.steps {
		if st.from > t {
			break
		}
		mbit = st.mbit
	}
	return mbit
}

// linkTransport adds the modelled link delay to every round trip of inner.
// The delay is slept after the exchange, at the bandwidth in force then.
type linkTransport struct {
	inner core.Transport
	sched *bwSchedule
	clock func() time.Duration // offset from the schedule's origin
	sleep func(time.Duration)
	tr    *tracer // nil unless tracing
}

func (l *linkTransport) RoundTrip(ctx context.Context, req *core.WireRequest) (*core.WireResponse, error) {
	reqBytes := len(req.Body) // the client recycles the body once we return
	resp, err := l.inner.RoundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	d := linkDelay(reqBytes+len(resp.Body), l.sched.at(l.clock()))
	ct, _ := ctx.Value(clientTraceKey{}).(*clientTrace)
	if l.tr == nil || ct == nil {
		l.sleep(d)
		return resp, nil
	}
	id := l.tr.reserve()
	start := l.tr.now()
	l.sleep(d)
	l.tr.set(id, span{layer: layerLink, call: ct.call, parent: ct.cur, start: start, end: l.tr.now()})
	return resp, nil
}

func (l *linkTransport) PooledResponseBodies() bool { return pooledBodies(l.inner) }
