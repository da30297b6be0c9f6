package main

import (
	"context"
	"testing"
	"time"

	"soapbinq/internal/core"
)

func TestLinkDelayArithmetic(t *testing.T) {
	for _, c := range []struct {
		bytes, mbit int
		want        time.Duration
	}{
		{0, 32, 2 * time.Millisecond},
		{4000, 32, 3 * time.Millisecond}, // 32 kbit at 32 Mbit/s is 1 ms
		{4000, 8, 6 * time.Millisecond},  // and 4 ms at 8 Mbit/s
		{57_600, 8, 59600 * time.Microsecond},
	} {
		if got := linkDelay(c.bytes, c.mbit); got != c.want {
			t.Errorf("linkDelay(%d B, %d Mbit/s) = %v, want %v", c.bytes, c.mbit, got, c.want)
		}
	}
}

func TestScheduleIsSeededAndBalanced(t *testing.T) {
	a, b := newSchedule(7), newSchedule(7)
	if len(a.steps) != len(b.steps) {
		t.Fatalf("same seed, %d and %d steps", len(a.steps), len(b.steps))
	}
	for i := range a.steps {
		if a.steps[i] != b.steps[i] {
			t.Fatalf("same seed, step %d is %v and %v", i, a.steps[i], b.steps[i])
		}
	}
	differs := false
	for seed := uint64(1); seed <= 8; seed++ {
		s := newSchedule(seed)
		if s.period != 10*time.Second || len(s.steps) != 2*len(dwells) {
			t.Fatalf("seed %d: period %v in %d steps", seed, s.period, len(s.steps))
		}
		var high time.Duration
		for i, st := range s.steps {
			end := s.period
			if i+1 < len(s.steps) {
				end = s.steps[i+1].from
				if s.steps[i+1].mbit == st.mbit {
					t.Errorf("seed %d: steps %d and %d both at %d Mbit/s", seed, i, i+1, st.mbit)
				}
			}
			if st.mbit == linkHighMbit {
				high += end - st.from
			}
		}
		if high != s.period/2 {
			t.Errorf("seed %d: %v of %v at the high bandwidth, want half", seed, high, s.period)
		}
		for i := range s.steps {
			if s.steps[i] != a.steps[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("eight seeds gave one schedule")
	}
}

func TestScheduleStepBoundaries(t *testing.T) {
	s := newSchedule(3)
	for i, st := range s.steps {
		if got := s.at(st.from); got != st.mbit {
			t.Errorf("at the start of step %d: %d Mbit/s, want %d", i, got, st.mbit)
		}
		if i > 0 {
			if got := s.at(st.from - 1); got != s.steps[i-1].mbit {
				t.Errorf("1 ns before step %d: %d Mbit/s, want %d", i, got, s.steps[i-1].mbit)
			}
		}
	}
	last := s.steps[len(s.steps)-1].mbit
	if got := s.at(-1); got != last {
		t.Errorf("1 ns before the origin: %d Mbit/s, want the last step's %d", got, last)
	}
	if got := s.at(s.period + s.steps[1].from); got != s.steps[1].mbit {
		t.Errorf("one period on: %d Mbit/s, want %d", got, s.steps[1].mbit)
	}
}

type fixedTransport struct{ respBytes int }

func (f fixedTransport) RoundTrip(context.Context, *core.WireRequest) (*core.WireResponse, error) {
	return &core.WireResponse{Body: make([]byte, f.respBytes)}, nil
}

func TestLinkTransportSleepsTheModelledDelay(t *testing.T) {
	s := newSchedule(1)
	var now time.Duration
	var slept []time.Duration
	l := &linkTransport{
		inner: fixedTransport{respBytes: 3000},
		sched: s,
		clock: func() time.Duration { return now },
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	req := &core.WireRequest{Body: make([]byte, 1000)}
	for _, st := range s.steps[:2] {
		now = st.from
		if _, err := l.RoundTrip(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if want := linkDelay(4000, st.mbit); slept[len(slept)-1] != want {
			t.Errorf("at %v (%d Mbit/s) slept %v, want %v", now, st.mbit, slept[len(slept)-1], want)
		}
	}
	if slept[0] == slept[1] {
		t.Errorf("both bandwidths slept %v", slept[0])
	}
}
