GO ?= go
FUZZTIME ?= 10s
# The hot-path report this tree records and compares against: one
# BENCH_pr$(PR).json per PR that moves the numbers, older ones kept as the
# series (BENCH_pr4.json is its first point).
PR ?= 13

.PHONY: check build vet test race chaos chaos-front bench bench-paper bench-compare lint fuzz-smoke obs-smoke benchmark-module

# The tier-1 gate: everything must build, vet clean, pass the full
# suite under the race detector (the context/cancellation paths are
# concurrency-heavy; -race is not optional here), survive the seeded
# chaos suite and the router chaos suite, lint clean under the repo's
# own analyzer suite, and expose the observability surface end to end.
# The repository benchmark is a nested module, outside ./..., that
# imports core and pbio: it is vetted and tested here too, so an API
# change that breaks it fails the gate.
check: build vet race chaos chaos-front lint obs-smoke benchmark-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Deterministic fault-injection suite over real sockets: scripted
# refusals, resets, stalls, corruption, 503 bursts, and duplicates
# driving the breaker, the load shedder, and quality degradation.
# -count=1 defeats the test cache — chaos runs must actually run.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/faultinject ./internal/core ./internal/netem

# Router chaos suite over real sockets: four backends behind soapfront,
# hundreds of concurrent callers, and the scenario family from the
# fault model — backend death mid-flight, flap, gray failure
# (blackhole), drain-under-load, partition. Idempotent callers must see
# zero non-fault errors through every scenario.
chaos-front:
	$(GO) test -race -count=1 -run 'FrontChaos' ./internal/front

# The repo's own stdlib-only analyzer suite (see internal/lint): wire
# width, bounded reads, context discipline, fault codes, error matching,
# response-body hygiene. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/soaplint ./...

# Observability smoke: an instrumented echo rig with the debug mux
# attached, driven and then scraped the way an operator would — every
# expected metric family must appear in /metrics and /debug/quality
# must return client/server spans correlated by trace ID.
obs-smoke:
	$(GO) run ./cmd/soapbench -obssmoke

benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Short fuzz pass over the untrusted-input parsers and the framed-TCP
# surfaces (frame reader, server-side connection loop). FUZZTIME=10s
# keeps it CI-sized; raise it locally for a real hunt.
fuzz-smoke:
	$(GO) test ./internal/pbio -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xmlenc -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soap -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frame -run '^$$' -fuzz '^FuzzFrameRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMuxServerConn$$' -fuzztime $(FUZZTIME)

# Measure the zero-allocation wire hot path (codec plans, pooled
# buffers and value slabs, multiplexed TCP pool) with -benchmem
# semantics and record BENCH_pr$(PR).json: ns/op, B/op, allocs/op for the
# codec and the pooled echo round trip at 1,024 and 65,536 ints, plus
# throughput and p50/p99 RTT at 1/8/64 concurrent callers over real TCP
# (pool of 1 vs pool of 8).
bench:
	$(GO) run ./cmd/soapbench -hotpath -benchout BENCH_pr$(PR).json

# Re-measure and check against the recorded BENCH_pr$(PR).json; fails on
# allocation regressions (timing columns are advisory).
bench-compare:
	$(GO) run ./cmd/soapbench -hotpath -quick -compare -benchout BENCH_pr$(PR).json

# Regenerate every table/figure of the paper's evaluation (quick pass).
bench-paper:
	$(GO) run ./cmd/soapbench -all -quick
