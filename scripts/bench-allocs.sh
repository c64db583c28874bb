#!/usr/bin/env bash
# bench-allocs.sh — allocation and speed gates for the classify pass, the
# read path and the ingest layers.
#
# Every classify-all pass is the cold classify of its snapshot: O(graph),
# prepared by node and e2LD id into pre-sized slabs. This script holds
# that pass to a fixed allocation count and byte budget on the 100k-domain
# fixture (see the full-pass gates), and the read path to "a lookup the
# last pass answers builds nothing". It also gates the segb1 wire format:
# decode allocation budget, binary-vs-text parse speedup, the ingest
# frontend events/s floors (with the shard worker applying beside it, and
# held off so only the frontend runs), plus the text frontend's
# allocation budget (see the wire-format section below), and holds
# the graph-apply events/s floor, the symbol-path-over-string-path apply
# ratio, the 0-alloc E2LD budget, the bulk-over-per-line activity
# preload ratio, the radix-over-comparison edge sort ratio and the live
# heap of an ingested day.
set -euo pipefail

cd "$(dirname "$0")/.."

# The embedded tsdb self-scrapes the whole metrics registry every few
# seconds for the daemon's lifetime, so a scrape must not allocate in
# steady state (series columns are preallocated at first sight; the
# measured steady state is 0 allocs/op). A blown budget means per-scrape
# garbage on a hot background loop.
TSDB_SCRAPE_BUDGET=64

gate() {
    local bench=$1 pkg=$2 budget=$3
    local out allocs
    # Anchor the selector and match the result line exactly (names are
    # suffixed "-<GOMAXPROCS>" in the output), so sibling benchmarks
    # sharing a prefix don't bleed into each other's gates.
    out=$(go test -run '^$' -bench "${bench}\$" -benchmem -benchtime 10x "$pkg")
    echo "$out"

    allocs=$(echo "$out" | awk -v b="$bench" '$1 == b || index($1, b "-") == 1 {for (i=1; i<=NF; i++) if ($i == "allocs/op") print $(i-1)}' | head -n1)
    if [ -z "$allocs" ]; then
        echo "bench-allocs: could not parse allocs/op from $bench output" >&2
        exit 1
    fi

    if [ "$allocs" -gt "$budget" ]; then
        echo "bench-allocs: $bench allocated $allocs allocs/op, budget is $budget" >&2
        exit 1
    fi
    echo "bench-allocs: $bench: $allocs allocs/op within budget $budget"
}

# metric OUTPUT BENCH UNIT -> the value preceding UNIT on BENCH's line.
metric() {
    echo "$1" | awk -v b="$2" -v u="$3" \
        '$0 ~ b {for (i = 2; i <= NF; i++) if ($i == u) print $(i-1)}' | head -n1
}

# --- Read-path and full-pass gates ----------------------------------------
#
# A by-name lookup beside a live stream is answered from the last pass and
# builds nothing: ~40 allocs/op for the request, the evidence and the JSON,
# whether the name is scored, pruned or listed. A snapshot, a prune plan or
# a view on the request path shows up as thousands.
LOOKUP_ALLOC_BUDGET=200
lookup_out=$(go test -run '^$' -bench 'BenchmarkDomainLookupBesideIngest$' -benchmem -benchtime 1000x ./internal/server)
echo "$lookup_out"
for kind in scored pruned listed; do
    allocs=$(metric "$lookup_out" "BenchmarkDomainLookupBesideIngest/$kind-" allocs/op)
    if [ -z "$allocs" ]; then
        echo "bench-allocs: could not parse allocs/op for a $kind lookup" >&2
        exit 1
    fi
    if [ "$allocs" -gt "$LOOKUP_ALLOC_BUDGET" ]; then
        echo "bench-allocs: a $kind lookup beside ingest allocated $allocs allocs/op, budget is $LOOKUP_ALLOC_BUDGET" >&2
        exit 1
    fi
    echo "bench-allocs: $kind lookup beside ingest: $allocs allocs/op within budget $LOOKUP_ALLOC_BUDGET"
done

# The cold full pass measures features on the snapshot through its prune
# plan: no pruned copy, no per-pass name index, no string-keyed e2LD
# counter, slabs sized up front. Measured 21.1 MB/op on the 2-vCPU bench
# host (31.7 MB/op while every pass materialized the pruned graph); the
# ceiling is that + 15 %, so a copy of the graph coming back fails here.
FULL_PASS_BYTES_BUDGET=24300000
# The same pass in allocations: measured 315 allocs/op on the 100k-domain
# fixture, a count that does not grow with the graph (slabs, not
# per-domain objects). The budget is that + 25 %: a per-domain or
# per-chunk allocation coming back shows up as hundreds to thousands more.
FULL_PASS_ALLOC_BUDGET=400
full_bench="BenchmarkClassifyAllFull/unknown=100k"
full_out=$(go test -run '^$' -bench "${full_bench}\$" -benchmem -benchtime 10x ./internal/server)
echo "$full_out"
full_bytes=$(metric "$full_out" "${full_bench}-" B/op)
full_allocs=$(metric "$full_out" "${full_bench}-" allocs/op)
if [ -z "$full_bytes" ] || [ -z "$full_allocs" ]; then
    echo "bench-allocs: could not parse B/op and allocs/op from $full_bench output" >&2
    exit 1
fi
if [ "$full_bytes" -gt "$FULL_PASS_BYTES_BUDGET" ]; then
    echo "bench-allocs: a full classify pass allocated $full_bytes B/op, budget is $FULL_PASS_BYTES_BUDGET" >&2
    exit 1
fi
echo "bench-allocs: full classify pass: $full_bytes B/op within budget $FULL_PASS_BYTES_BUDGET"
if [ "$full_allocs" -gt "$FULL_PASS_ALLOC_BUDGET" ]; then
    echo "bench-allocs: a full classify pass allocated $full_allocs allocs/op, budget is $FULL_PASS_ALLOC_BUDGET" >&2
    exit 1
fi
echo "bench-allocs: full classify pass: $full_allocs allocs/op within budget $FULL_PASS_ALLOC_BUDGET"

gate BenchmarkScrape ./internal/tsdb "$TSDB_SCRAPE_BUDGET"
# E2LD runs once per interned name in every builder, in snapshot decode
# and in the batch oracle; every candidate suffix is a slice of the
# input, so it must not allocate at all.
gate BenchmarkE2LD ./internal/dnsutil 0

# --- Graph-apply floor --------------------------------------------------
#
# BenchmarkIngestApply configures what the daemon configures (metrics
# and a live activity log) and applies 256-event batches through
# shardApply. The shard lock must guard integer work only: activity
# marks and e2LD derivation are paid on a domain's first query, not per
# event. With per-event marking this benchmark ran at ~0.7M events/s on
# the 2-vCPU bench host; first-query marking runs at ~3.7M. The floor
# sits between the two so a per-event cost cannot hide here again.
#
# BenchmarkIngestApplySymbols applies the same batches as one warm segb1
# connection delivers them: names numbered by the stream, resolved to node
# ids through the ring's symbol tables instead of two string-map probes
# per event. It must run at least APPLY_SYMBOLS_SPEEDUP_FLOOR x the
# string-path rate measured in the same run (a ratio, so it holds on any
# host; measured 2.0–2.4x on the 2-vCPU bench host). Below that the tables
# are not being hit — a stale bind, a per-event clear, a lookup that fell
# back to strings.
APPLY_EVENTS_FLOOR=1500000
APPLY_SYMBOLS_SPEEDUP_FLOOR=1.5
apply_out=$(go test -run '^$' -bench 'BenchmarkIngestApply(Symbols)?$' -benchmem -benchtime 2s ./internal/ingest)
echo "$apply_out"
apply_rate=$(metric "$apply_out" "BenchmarkIngestApply-" events/s)
symbols_rate=$(metric "$apply_out" "BenchmarkIngestApplySymbols-" events/s)
if [ -z "$apply_rate" ] || [ -z "$symbols_rate" ]; then
    echo "bench-allocs: could not parse events/s from BenchmarkIngestApply(Symbols) output" >&2
    exit 1
fi
if ! awk -v r="$apply_rate" -v f="$APPLY_EVENTS_FLOOR" 'BEGIN { exit !(r >= f) }'; then
    echo "bench-allocs: activity-on graph apply sustained $apply_rate events/s, floor is $APPLY_EVENTS_FLOOR" >&2
    exit 1
fi
echo "bench-allocs: activity-on graph apply $apply_rate events/s (floor $APPLY_EVENTS_FLOOR)"
if ! awk -v s="$symbols_rate" -v r="$apply_rate" -v f="$APPLY_SYMBOLS_SPEEDUP_FLOOR" 'BEGIN { exit !(s >= f * r) }'; then
    echo "bench-allocs: symbol-path graph apply is only $(awk -v s="$symbols_rate" -v r="$apply_rate" 'BEGIN { printf "%.2f", s/r }')x the string path ($symbols_rate vs $apply_rate events/s), floor is ${APPLY_SYMBOLS_SPEEDUP_FLOOR}x" >&2
    exit 1
fi
echo "bench-allocs: symbol-path graph apply $(awk -v s="$symbols_rate" -v r="$apply_rate" 'BEGIN { printf "%.1f", s/r }')x the string path (floor ${APPLY_SYMBOLS_SPEEDUP_FLOOR}x)"

# --- Graph-apply scaling gate -----------------------------------------
#
# The sharded graph backend exists to remove the single apply lock from
# the hot path: with 4 machine-hash shards, aggregate apply throughput
# must reach at least APPLY_SCALING_FLOOR x the single-shard rate. The
# curve only exists when the host can actually run appliers in parallel,
# so the gate is conditioned on >=4 CPUs; below that the appliers
# serialize on the core, the ratio is meaningless, and the gate is
# skipped with a note (the full shards=1/2/4/8 curve is still archived
# by `make bench` into BENCH_ingest.json on every host).
APPLY_SCALING_FLOOR=2.5
ncpu=$(nproc 2>/dev/null || echo 1)
if [ "$ncpu" -ge 4 ]; then
    scale_out=$(go test -run '^$' -bench 'BenchmarkIngestApplyShards/shards=(1|4)$' \
        -benchmem -benchtime 2s ./internal/ingest)
    echo "$scale_out"
    rate1=$(metric "$scale_out" "shards=1-" events/s)
    rate4=$(metric "$scale_out" "shards=4-" events/s)
    if [ -z "$rate1" ] || [ -z "$rate4" ]; then
        echo "bench-allocs: could not parse events/s from BenchmarkIngestApplyShards output" >&2
        exit 1
    fi
    if ! awk -v r1="$rate1" -v r4="$rate4" -v f="$APPLY_SCALING_FLOOR" \
        'BEGIN { exit !(r4 >= f * r1) }'; then
        echo "bench-allocs: 4-shard graph apply is only $(awk -v r1="$rate1" -v r4="$rate4" 'BEGIN { printf "%.2f", r4/r1 }')x single-shard ($rate4 vs $rate1 events/s), floor is ${APPLY_SCALING_FLOOR}x" >&2
        exit 1
    fi
    echo "bench-allocs: 4-shard graph apply $(awk -v r1="$rate1" -v r4="$rate4" 'BEGIN { printf "%.1f", r4/r1 }')x single-shard (floor ${APPLY_SCALING_FLOOR}x)"
else
    echo "bench-allocs: skipping graph-apply scaling gate: $ncpu CPU(s), need >=4 for a meaningful parallel-apply ratio"
fi

# --- Wire-format gates ------------------------------------------------
#
# The segb1 binary framing exists to make the ingest frontend cheap:
# interned symbols amortise string allocation across a connection, and
# decode hands out pooled events without per-event copies. Three gates
# hold that contract:
#
#  1. Decode allocation budget. BenchmarkDecodeEventsBinary streams 1M
#     events through a fresh decoder; steady state is ~19k allocs/op,
#     all in symbol defines (~0.02 allocs/event). A regression to
#     per-event allocation would be >=1M allocs/op, so the budget has
#     wide headroom while still being a hard wall.
#  2. Parse-layer speedup. Binary decode must stay >=5x faster than
#     text parse in events/s. The ratio is gated at the parse layer
#     deliberately: end-to-end daemon throughput is bound by the
#     format-independent graph-apply backend (BenchmarkIngestApply),
#     which on small CI machines interleaves into the same cores and
#     compresses any wire-format ratio measured through it.
#  3. Frontend throughput floor. BenchmarkIngestBinaryThroughput runs
#     segb1 frames through auto-detection, decode, sharding, and ring
#     publish on a fresh ingester; it must sustain >=1M events/s.
#  4. Producer-only floors. The throughput benchmark above lets the shard
#     worker apply on the other CPU while Consume runs, so on a 2-vCPU host
#     it times the scheduler too (12 runs of one binary spread 1.86-2.53M
#     text events/s). BenchmarkIngest{Binary,Text}Producer hold the worker
#     in an ApplyHook until Consume returns. Two sets of ten runs, an hour
#     apart, on the shared 2-vCPU bench host read 3.35-7.45M binary and
#     1.34-2.99M text events/s; each floor is its lowest run - 15 %.
#  5. Text frontend allocation budget. BenchmarkIngestTextThroughput runs
#     the same 200k events as text lines through the line loop every line
#     source shares (text stream, tailed file, trace_dns): ~1.3 allocs per
#     event, measured 259.5k allocs/op on the 2-vCPU bench host. The budget
#     is that + 25 %: a per-line buffer or copy coming back costs 200k more.
DECODE_ALLOC_BUDGET=100000
DECODE_SPEEDUP_FLOOR=5
INGEST_EVENTS_FLOOR=1000000
BINARY_PRODUCER_FLOOR=2850000
TEXT_PRODUCER_FLOOR=1130000

wire_out=$(go test -run '^$' -bench 'BenchmarkParseEventText|BenchmarkDecodeEventsBinary' \
    -benchmem -benchtime 10x ./internal/logio)
echo "$wire_out"
decode_allocs=$(metric "$wire_out" BenchmarkDecodeEventsBinary allocs/op)
decode_rate=$(metric "$wire_out" BenchmarkDecodeEventsBinary events/s)
text_rate=$(metric "$wire_out" BenchmarkParseEventText events/s)
if [ -z "$decode_allocs" ] || [ -z "$decode_rate" ] || [ -z "$text_rate" ]; then
    echo "bench-allocs: could not parse wire-format benchmark output" >&2
    exit 1
fi
if [ "$decode_allocs" -gt "$DECODE_ALLOC_BUDGET" ]; then
    echo "bench-allocs: BenchmarkDecodeEventsBinary allocated $decode_allocs allocs/op, budget is $DECODE_ALLOC_BUDGET" >&2
    exit 1
fi
echo "bench-allocs: BenchmarkDecodeEventsBinary: $decode_allocs allocs/op within budget $DECODE_ALLOC_BUDGET"
if ! awk -v r="$decode_rate" -v t="$text_rate" -v f="$DECODE_SPEEDUP_FLOOR" \
    'BEGIN { exit !(r >= f * t) }'; then
    echo "bench-allocs: binary decode is only $(awk -v r="$decode_rate" -v t="$text_rate" 'BEGIN { printf "%.2f", r/t }')x text parse ($decode_rate vs $text_rate events/s), floor is ${DECODE_SPEEDUP_FLOOR}x" >&2
    exit 1
fi
echo "bench-allocs: binary decode $(awk -v r="$decode_rate" -v t="$text_rate" 'BEGIN { printf "%.1f", r/t }')x text parse (floor ${DECODE_SPEEDUP_FLOOR}x)"

thr_out=$(go test -run '^$' -bench 'BenchmarkIngestBinaryThroughput$' \
    -benchmem -benchtime 10x ./internal/ingest)
echo "$thr_out"
ingest_rate=$(metric "$thr_out" BenchmarkIngestBinaryThroughput events/s)
if [ -z "$ingest_rate" ]; then
    echo "bench-allocs: could not parse events/s from BenchmarkIngestBinaryThroughput output" >&2
    exit 1
fi
if ! awk -v r="$ingest_rate" -v f="$INGEST_EVENTS_FLOOR" 'BEGIN { exit !(r >= f) }'; then
    echo "bench-allocs: binary ingest frontend sustained $ingest_rate events/s, floor is $INGEST_EVENTS_FLOOR" >&2
    exit 1
fi
echo "bench-allocs: binary ingest frontend $ingest_rate events/s (floor $INGEST_EVENTS_FLOOR)"

prod_out=$(go test -run '^$' -bench 'BenchmarkIngest(Binary|Text)Producer$' \
    -benchmem -benchtime 10x ./internal/ingest)
echo "$prod_out"
for kind in Binary Text; do
    rate=$(metric "$prod_out" "BenchmarkIngest${kind}Producer-" events/s)
    if [ "$kind" = Binary ]; then floor=$BINARY_PRODUCER_FLOOR; else floor=$TEXT_PRODUCER_FLOOR; fi
    if [ -z "$rate" ]; then
        echo "bench-allocs: could not parse events/s from BenchmarkIngest${kind}Producer output" >&2
        exit 1
    fi
    if ! awk -v r="$rate" -v f="$floor" 'BEGIN { exit !(r >= f) }'; then
        echo "bench-allocs: $kind ingest frontend alone sustained $rate events/s, floor is $floor" >&2
        exit 1
    fi
    echo "bench-allocs: $kind ingest frontend alone $rate events/s (floor $floor)"
done

gate BenchmarkIngestTextThroughput ./internal/ingest 324400

# --- History-preload gate ---------------------------------------------
#
# segugiod's start-up reads the F2 activity history (activity.tsv, ~1M
# lines at isp-50k) before it is ready. ReadActivity collects the file
# per name — one map probe per line, the e2LD resolved once per name —
# and merges it into the log under one lock. It must run at least
# ACTIVITY_SPEEDUP_FLOOR x faster than the per-line reference it replaced
# (two locked marks and three string-map probes per line), measured in
# the same run on the same fixture, best of three samples each (measured
# 2.1–2.8x on the 2-vCPU bench host). Below that the loader is paying per
# line again.
ACTIVITY_SPEEDUP_FLOOR=2
hist_out=$(go test -run '^$' -bench 'BenchmarkReadActivity/(bulk|perline)$' -benchmem -benchtime 50x -count 3 ./internal/logio)
echo "$hist_out"
best_ns() {
    echo "$hist_out" | awk -v b="$1" '$0 ~ b {for (i = 2; i <= NF; i++) if ($i == "ns/op" && (m == "" || $(i-1) < m)) m = $(i-1)} END {print m}'
}
bulk_ns=$(best_ns "BenchmarkReadActivity/bulk-")
perline_ns=$(best_ns "BenchmarkReadActivity/perline-")
if [ -z "$bulk_ns" ] || [ -z "$perline_ns" ]; then
    echo "bench-allocs: could not parse ns/op from BenchmarkReadActivity output" >&2
    exit 1
fi
if ! awk -v b="$bulk_ns" -v p="$perline_ns" -v f="$ACTIVITY_SPEEDUP_FLOOR" 'BEGIN { exit !(p >= f * b) }'; then
    echo "bench-allocs: bulk activity load is only $(awk -v b="$bulk_ns" -v p="$perline_ns" 'BEGIN { printf "%.2f", p/b }')x the per-line reference ($bulk_ns vs $perline_ns ns/op), floor is ${ACTIVITY_SPEEDUP_FLOOR}x" >&2
    exit 1
fi
echo "bench-allocs: bulk activity load $(awk -v b="$bulk_ns" -v p="$perline_ns" 'BEGIN { printf "%.1f", p/b }')x the per-line reference (floor ${ACTIVITY_SPEEDUP_FLOOR}x)"

# --- Edge-sort gate ---------------------------------------------------
#
# Every snapshot folds its pending edges into the sorted base run, and the
# sort is most of that fold. mergePending radix-sorts the packed
# machine<<32 | domain words over their significant bits in 11-bit digits:
# four linear passes for an isp-50k-shaped day. BenchmarkSortEdges sorts
# 200k such edges both ways; the radix sort must run at least
# SORT_SPEEDUP_FLOOR x faster than slices.Sort in the same run, best of
# three samples each (measured 5.1–5.4x on the 2-vCPU bench host). Below
# that the sort is running extra passes or fell back to comparisons.
SORT_SPEEDUP_FLOOR=3
sort_out=$(go test -run '^$' -bench 'BenchmarkSortEdges/(radix|slices)$' -benchmem -benchtime 20x -count 3 ./internal/graph)
echo "$sort_out"
best_sort_ns() {
    echo "$sort_out" | awk -v b="$1" '$0 ~ b {for (i = 2; i <= NF; i++) if ($i == "ns/op" && (m == "" || $(i-1) < m)) m = $(i-1)} END {print m}'
}
radix_ns=$(best_sort_ns "BenchmarkSortEdges/radix-")
slices_ns=$(best_sort_ns "BenchmarkSortEdges/slices-")
if [ -z "$radix_ns" ] || [ -z "$slices_ns" ]; then
    echo "bench-allocs: could not parse ns/op from BenchmarkSortEdges output" >&2
    exit 1
fi
if ! awk -v r="$radix_ns" -v s="$slices_ns" -v f="$SORT_SPEEDUP_FLOOR" 'BEGIN { exit !(s >= f * r) }'; then
    echo "bench-allocs: radix edge sort is only $(awk -v r="$radix_ns" -v s="$slices_ns" 'BEGIN { printf "%.2f", s/r }')x slices.Sort ($radix_ns vs $slices_ns ns/op), floor is ${SORT_SPEEDUP_FLOOR}x" >&2
    exit 1
fi
echo "bench-allocs: radix edge sort $(awk -v r="$radix_ns" -v s="$slices_ns" 'BEGIN { printf "%.1f", s/r }')x slices.Sort (floor ${SORT_SPEEDUP_FLOOR}x)"

# --- Day-heap gate ----------------------------------------------------
#
# A day's graph is held once: ingest shards stage day-builder node ids
# and keep no names, edges or adjacency of their own. BenchmarkIngestDayHeap
# applies an isp-50k-shaped day (50k machines, 110k domains, 2.1M distinct
# edges each sent twice) to four shards with a pass every 1.2M events and
# reports the live heap left after runtime.GC, fixture excluded. Best of
# three must stay under DAY_HEAP_CEILING_MB (measured 98.2 MB on the
# 2-vCPU bench host, against 201–206 MB while every shard kept its own
# builder; the ceiling is that + 15 %). Above it, a second copy of the
# day is back.
DAY_HEAP_CEILING_MB=113
heap_out=$(go test -run '^$' -bench 'BenchmarkIngestDayHeap$' -benchtime 1x -count 3 ./internal/ingest)
echo "$heap_out"
heap_mb=$(echo "$heap_out" | awk '/^BenchmarkIngestDayHeap-/ {for (i = 2; i <= NF; i++) if ($i == "live-MB" && (m == "" || $(i-1) < m)) m = $(i-1)} END {print m}')
if [ -z "$heap_mb" ]; then
    echo "bench-allocs: could not parse live-MB from BenchmarkIngestDayHeap output" >&2
    exit 1
fi
if ! awk -v h="$heap_mb" -v c="$DAY_HEAP_CEILING_MB" 'BEGIN { exit !(h <= c) }'; then
    echo "bench-allocs: a day's graph holds $heap_mb MB live, ceiling is $DAY_HEAP_CEILING_MB MB" >&2
    exit 1
fi
echo "bench-allocs: a day's graph holds $heap_mb MB live (ceiling $DAY_HEAP_CEILING_MB MB)"
