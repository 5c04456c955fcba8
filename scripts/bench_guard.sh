#!/usr/bin/env bash
# Bench regression guard over pumpkin-bench/v1 JSON reports.
#
# Gates EVERY benchmark id present in both the fresh report and the
# baseline: each shared row's median must stay within 25% of the
# committed number. Rows only in one file are reported but not fatal
# (benchmarks come and go across PRs).
#
# Baseline selection: pass one explicitly, or the guard picks the most
# recent committed BENCH_*.json (version sort), excluding the fresh
# report itself.
#
# Tolerance: 25%. The honest target for disabled-sink overhead is ≤ 2%
# (EXPERIMENTS.md reports the measured number), but this gate runs on a
# single-CPU container where run-to-run medians of a ~2 ms workload swing
# by double-digit percents, so a 2% CI assertion would be flaky by
# construction. The guard exists to catch real regressions (a probe left
# enabled, an accidental clone on the hot path), which show up well above
# noise.
#
# Usage: bench_guard.sh NEW.json [BASELINE.json]
set -euo pipefail
cd "$(dirname "$0")/.."

new=${1:?usage: bench_guard.sh NEW.json [BASELINE.json]}
base=${2:-}

if [ -z "$base" ]; then
    # Most recent committed baseline: highest BENCH_*.json by version
    # sort that is not the report under test.
    base=$(ls BENCH_*.json 2>/dev/null | grep -Fxv "$(basename "$new")" | sort -V | tail -1 || true)
    if [ -z "$base" ]; then
        echo "bench_guard: no committed BENCH_*.json baseline found" >&2
        exit 1
    fi
fi
echo "bench_guard: comparing $new against baseline $base"

ids() { sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$1"; }
median() { # median FILE ID -> median_ns, empty if the row is absent
    grep -F "\"id\":\"$2\"" "$1" | sed -n 's/.*"median_ns":\([0-9]*\).*/\1/p' | head -1
}

shared=0
failures=0
while IFS= read -r id; do
    n=$(median "$new" "$id")
    if [ -z "$n" ]; then
        echo "bench_guard: note: '$id' only in baseline (skipped)"
        continue
    fi
    b=$(median "$base" "$id")
    shared=$((shared + 1))
    limit=$((b + b / 4))
    echo "bench_guard: $id median ${n} ns vs baseline ${b} ns (limit ${limit} ns)"
    if [ "$n" -gt "$limit" ]; then
        echo "bench_guard: REGRESSION: $id is >25% over the committed baseline" >&2
        failures=$((failures + 1))
    fi
done < <(ids "$base")

while IFS= read -r id; do
    if [ -z "$(median "$base" "$id")" ]; then
        echo "bench_guard: note: '$id' only in $new (no baseline yet)"
    fi
done < <(ids "$new")

if [ "$shared" -eq 0 ]; then
    echo "bench_guard: no shared benchmark rows between $new and $base" >&2
    exit 1
fi

# Disabled-sink overhead, measured within one invocation so both arms see
# the same machine state: trace_overhead/off must stay within 25% of the
# jobs=1 row it duplicates (they are the same workload; any real gap means
# the no-op probes stopped being no-ops).
j1=$(median "$new" 'repair_parallel/jobs=1')
off=$(median "$new" 'trace_overhead/off')
if [ -n "$j1" ] && [ -n "$off" ]; then
    olimit=$((j1 + j1 / 4))
    echo "bench_guard: trace_overhead/off median ${off} ns vs jobs=1 ${j1} ns (limit ${olimit} ns)"
    if [ "$off" -gt "$olimit" ]; then
        echo "bench_guard: REGRESSION: disabled-sink overhead exceeds 25%" >&2
        failures=$((failures + 1))
    fi
fi
# Same in-run comparison for the provenance recorder, against the `off`
# arm (the identical workload measured adjacently in the same invocation;
# the jobs=1 row runs earlier in the binary and carries ordering bias):
# recorder + site rendering must stay within 25% of the plain run.
prov=$(median "$new" 'trace_overhead/prov')
if [ -n "$off" ] && [ -n "$prov" ]; then
    plimit=$((off + off / 4))
    echo "bench_guard: trace_overhead/prov median ${prov} ns vs off ${off} ns (limit ${plimit} ns)"
    if [ "$prov" -gt "$plimit" ]; then
        echo "bench_guard: REGRESSION: provenance recorder overhead exceeds 25%" >&2
        failures=$((failures + 1))
    fi
fi

# The persistent lift cache's reason to exist, asserted in-run: replaying
# serialized lifted declarations from a warm cache directory must be at
# least 5x faster than lifting into a cold one (both rows repair the same
# module in the same invocation, so machine noise cancels).
cold=$(median "$new" 'persist_cache/cold')
warm=$(median "$new" 'persist_cache/warm')
if [ -n "$cold" ] && [ -n "$warm" ]; then
    echo "bench_guard: persist_cache warm ${warm} ns vs cold ${cold} ns (need warm*5 <= cold)"
    if [ $((warm * 5)) -gt "$cold" ]; then
        echo "bench_guard: REGRESSION: warm persist-cache repair is not 5x faster than cold" >&2
        failures=$((failures + 1))
    fi
fi

# The incremental layer's reason to exist, asserted in-run: a
# session-resident incremental repair after touching 1 of the module's 13
# constants (diff digests, re-lift the touch, green-reuse the rest) must
# cost at most 0.3x of the full warm repair measured in the same
# invocation.
incr=$(median "$new" 'persist_cache/incremental')
if [ -n "$warm" ] && [ -n "$incr" ]; then
    echo "bench_guard: persist_cache incremental ${incr} ns vs warm ${warm} ns (need incr*10 <= warm*3)"
    if [ $((incr * 10)) -gt $((warm * 3)) ]; then
        echo "bench_guard: REGRESSION: incremental repair is not <=0.3x of a full warm repair" >&2
        failures=$((failures + 1))
    fi
fi

# Batch amortization, asserted in-run: one repair_batch frame over the
# 13-constant swap module must cost at most 0.8x of 13 individual repair
# RPCs (same repairs, same invocation — the delta is framing, connects,
# and queue handoffs the batch saves).
rpc13=$(median "$new" 'repair_batch/rpc13')
batch13=$(median "$new" 'repair_batch/batch13')
if [ -n "$rpc13" ] && [ -n "$batch13" ]; then
    echo "bench_guard: repair_batch batch13 ${batch13} ns vs rpc13 ${rpc13} ns (need batch13 <= 0.8 * rpc13)"
    if [ $((batch13 * 10)) -gt $((rpc13 * 8)) ]; then
        echo "bench_guard: REGRESSION: repair_batch no longer amortizes 13 RPCs to <=0.8x" >&2
        failures=$((failures + 1))
    fi
fi

# The automatic search's process-wide failure cache, asserted in-run:
# re-searching a module whose candidate failures were already recorded
# (auto_search/warm) must cost at most 0.5x of the cold enumeration run
# in the same invocation. In practice the warm row skips every kernel
# probe and lands orders of magnitude under the cold one; the 0.5x gate
# catches the cache being bypassed, not its exact payoff.
auto_cold=$(median "$new" 'auto_search/cold')
auto_warm=$(median "$new" 'auto_search/warm')
if [ -n "$auto_cold" ] && [ -n "$auto_warm" ]; then
    echo "bench_guard: auto_search warm ${auto_warm} ns vs cold ${auto_cold} ns (need warm*2 <= cold)"
    if [ $((auto_warm * 2)) -gt "$auto_cold" ]; then
        echo "bench_guard: REGRESSION: failure-cache-warmed auto search is not 2x faster than cold" >&2
        failures=$((failures + 1))
    fi
fi

# The hash-consing + NbE payoff, asserted in-run against a fixed ceiling:
# scaling_term_size/list_len_64 measured 14,941,814 ns median under the
# pre-interning kernel (Arc-per-node terms, whnf-rewriting conversion;
# sample-size 9, this container). The refactor must at least halve that.
# A hard constant rather than a committed-baseline row because the old
# kernel no longer exists to re-measure against.
len64=$(median "$new" 'scaling_term_size/list_len_64')
if [ -n "$len64" ]; then
    pre_refactor=14941814
    ceiling=$((pre_refactor / 2))
    echo "bench_guard: scaling_term_size/list_len_64 ${len64} ns (need <= ${ceiling} ns = 0.5 * pre-refactor ${pre_refactor} ns)"
    if [ "$len64" -gt "$ceiling" ]; then
        echo "bench_guard: REGRESSION: list_len_64 repair no longer >=2x faster than the pre-interning kernel" >&2
        failures=$((failures + 1))
    fi
fi

# Loadgen sanity, asserted in-run: when a report carries serve_load rows
# they must be complete (p50/p95/p99/throughput), nonzero, and ordered —
# a zero percentile or p50 > p99 means the generator measured nothing.
sl_p50=$(median "$new" 'serve_load/p50')
if [ -n "$sl_p50" ]; then
    sl_p95=$(median "$new" 'serve_load/p95')
    sl_p99=$(median "$new" 'serve_load/p99')
    sl_tput=$(median "$new" 'serve_load/throughput')
    echo "bench_guard: serve_load p50 ${sl_p50} ns, p95 ${sl_p95:-MISSING} ns, p99 ${sl_p99:-MISSING} ns, ${sl_tput:-MISSING} ns/req"
    if [ -z "$sl_p95" ] || [ -z "$sl_p99" ] || [ -z "$sl_tput" ]; then
        echo "bench_guard: REGRESSION: serve_load rows are incomplete" >&2
        failures=$((failures + 1))
    elif [ "$sl_p50" -eq 0 ] || [ "$sl_tput" -eq 0 ] ||
        [ "$sl_p50" -gt "$sl_p95" ] || [ "$sl_p95" -gt "$sl_p99" ]; then
        echo "bench_guard: REGRESSION: serve_load percentiles are zero or unordered" >&2
        failures=$((failures + 1))
    fi
fi

# Broken-module mix sanity (loadgen --fail-rate): when the report carries
# serve_load/auto_* rows, the repair_auto latencies behind them must be
# nonzero and ordered — a zero p50 means the exhaustion replies were
# dropped as errors instead of measured as completions.
al_p50=$(median "$new" 'serve_load/auto_p50')
if [ -n "$al_p50" ]; then
    al_p99=$(median "$new" 'serve_load/auto_p99')
    echo "bench_guard: serve_load auto_p50 ${al_p50} ns, auto_p99 ${al_p99:-MISSING} ns"
    if [ -z "$al_p99" ] || [ "$al_p50" -eq 0 ] || [ "$al_p50" -gt "$al_p99" ]; then
        echo "bench_guard: REGRESSION: serve_load auto rows are missing, zero, or unordered" >&2
        failures=$((failures + 1))
    fi
fi

# Server-vs-client tail, asserted in-run when the report carries the
# daemon's own view (loadgen --server-stats): the server measures each
# request from frame parse to reply write, which excludes the client's
# connects, busy-retry backoffs, and network time — so its p99 must not
# exceed the client's. The daemon's histograms are log-linear and
# quantiles are sub-bucket midpoints (within 6.25% of the exact value), so
# the 1.5x factor is headroom, not bucket granularity: the gate catches a
# broken lifecycle clock (server "latency" including time the client never
# saw).
srv_p99=$(median "$new" 'serve_load/server_p99')
if [ -n "$srv_p99" ] && [ -n "${sl_p99:-}" ]; then
    srv_q99=$(median "$new" 'serve_load/server_queue_p99')
    echo "bench_guard: serve_load server_p99 ${srv_p99} ns vs client p99 ${sl_p99} ns (need server*2 <= client*3); server_queue_p99 ${srv_q99:-MISSING} ns"
    if [ -z "$srv_q99" ] || [ "$srv_q99" -eq 0 ]; then
        echo "bench_guard: REGRESSION: server-side queue-wait percentiles missing or zero" >&2
        failures=$((failures + 1))
    fi
    if [ $((srv_p99 * 2)) -gt $((sl_p99 * 3)) ]; then
        echo "bench_guard: REGRESSION: server-side p99 exceeds the client-side p99 (beyond bucket granularity)" >&2
        failures=$((failures + 1))
    fi
    if [ "$srv_q99" -gt "$srv_p99" ]; then
        echo "bench_guard: REGRESSION: server queue-wait p99 exceeds server latency p99" >&2
        failures=$((failures + 1))
    fi
fi

if [ "$failures" -gt 0 ]; then
    echo "bench_guard: $failures regression(s)" >&2
    exit 1
fi
echo "bench_guard: ok ($shared shared row(s) gated)"
