GO ?= go

.PHONY: build test race vet check bench bench-allocs bench-short bench-all fuzz-smoke obs-smoke chaos loc loc-check clean

# Ceilings for loc-check: total non-test Go lines under internal/ + cmd/
# and the number of segugiod flags. A PR that must grow either one raises
# its number here, in its diff.
LOC_MAX = 22621
FLAGS_MAX = 29

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the pre-merge gate: static analysis, the full test suite under
# the race detector, and the line and flag ratchet.
check: vet race loc-check

# bench runs the performance suites with 5 samples per benchmark and
# archives the aggregated results: the snapshot/apply suite as
# BENCH_snapshot.json, the wire-format ingest suite (segb1 binary
# encode/decode vs text parse/write, end-to-end frontend throughput,
# the BenchmarkIngestApplyShards shards=1/2/4/8 graph-apply scaling
# curve, the activity/pdns history loaders beside their per-line
# references, the 4-stripe BenchmarkIngestRecover, and the 4-shard
# BenchmarkSnapshotSinceSharded pass refresh) as BENCH_ingest.json, the classify pipeline suite (the
# cold classify-all pass at 100k and 400k unknown domains, the by-name
# lookup beside ingest, batch scoring) as BENCH_classify.json, and the
# batch belief propagation baseline
# (one cold full pass) as BENCH_lbp.json. It is
# informational (no CI gate; bench-allocs holds the hard gates); diff
# the JSON across commits to spot regressions. events/s rates land in
# each benchmark's "extra" map.
bench:
	$(GO) test -bench . -benchmem -count=5 -run '^$$' ./internal/graph \
		| $(GO) run ./cmd/benchjson -o BENCH_snapshot.json
	$(GO) test -bench 'BenchmarkParseEventText|BenchmarkDecodeEventsBinary|BenchmarkEncodeEventsBinary|BenchmarkWriteEventText|BenchmarkReadActivity|BenchmarkReadPDNS|BenchmarkIngest|BenchmarkSnapshotSinceSharded' \
		-benchmem -count=5 -run '^$$' ./internal/logio ./internal/ingest \
		| $(GO) run ./cmd/benchjson -o BENCH_ingest.json
	$(GO) test -bench 'BenchmarkClassifyAll|BenchmarkScore' -benchmem -count=5 -run '^$$' \
		./internal/server ./internal/ml \
		| $(GO) run ./cmd/benchjson -o BENCH_classify.json
	$(GO) test -bench 'BenchmarkLBP' -benchmem -count=5 -run '^$$' ./internal/belief \
		| $(GO) run ./cmd/benchjson -o BENCH_lbp.json
	$(GO) test -bench . -benchmem -count=5 -run '^$$' ./internal/tsdb \
		| $(GO) run ./cmd/benchjson -o BENCH_obs.json

# bench-allocs is the CI allocation and speed gate: fails when the cold
# classify-all pass outgrows its allocation or byte budget, a by-name
# lookup beside ingest builds anything, or an ingest layer falls below its
# floor (see scripts/bench-allocs.sh).
bench-allocs:
	./scripts/bench-allocs.sh

bench-all:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-short compiles and runs every benchmark exactly once — a smoke
# test that the benchmark suite still builds and executes (CI runs this).
bench-short:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# fuzz-smoke runs each decoder and fold fuzz target for FUZZTIME: the
# segb1 frame and stream decoders against hostile input, and the graph
# builder's edge fold against the sort-plus-binary-search reference.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/logio
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStream$$' -fuzztime $(FUZZTIME) ./internal/logio
	$(GO) test -run '^$$' -fuzz '^FuzzMergePending$$' -fuzztime $(FUZZTIME) ./internal/graph

# chaos runs the fault-injection e2e suite under the race detector: a
# full daemon driven healthy -> degraded -> overloaded -> recovered via
# injected pass stalls, fsync faults, and an event flood, plus a
# SIGKILL at peak overload — asserting stale-marked serves, exact shed
# accounting, and no acknowledged event lost.
chaos:
	$(GO) test -race -count=1 -v -run 'TestDaemonChaos' ./cmd/segugiod/

# obs-smoke boots a real segugiod, feeds it a canned event trace, and
# curls the observability surface (/metrics, /debug/obs/traces,
# /v1/audit, /healthz). Fails if any endpoint is missing or broken.
obs-smoke:
	./scripts/obs-smoke.sh

# loc prints non-test and test Go lines per package plus the segugiod
# flag count (see scripts/loc.sh): run it on a change and on its parent to
# read the net line and knob delta instead of estimating it.
loc:
	./scripts/loc.sh

# loc-check is loc as a ratchet: it fails above LOC_MAX lines or FLAGS_MAX
# flags.
loc-check:
	LOC_MAX=$(LOC_MAX) FLAGS_MAX=$(FLAGS_MAX) ./scripts/loc.sh -check

clean:
	$(GO) clean ./...
	rm -f segugio segugiod segugio-experiments
