#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 test suite, and the perf
# smoke benchmark. Run from the repository root:
#
#   scripts/ci.sh
#
# The perf smoke step rewrites BENCH_chase.json, BENCH_rewrite.json, and
# BENCH_guarded.json, the serve bench rewrites BENCH_serve.json, and the
# store bench rewrites BENCH_store.json; commit the refreshed files when
# the counters change intentionally.
# scripts/bench_diff.py shows the drift against the committed baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q --release --workspace

echo "==> perfbench builds and passes its self-tests"
# perfbench is its own cargo workspace compiled against the public stats
# types (global_hom_snapshot(), RewriteStats, ...); the root test run never
# builds it, so an API break there would only surface as a failed benchmark.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perf smoke (writes BENCH_chase.json, BENCH_rewrite.json, BENCH_guarded.json)"
cargo run -q --release -p omq-bench --bin perf_smoke

echo "==> guarded/reduction sweep present (witness n=3..6, tiling k=2/3, encode)"
[ -f BENCH_guarded.json ] || {
    echo "BENCH_guarded.json was not written by perf_smoke" >&2
    exit 1
}
for row in \
    "guarded:witness counter n=3" "guarded:witness counter n=4" \
    "guarded:witness counter n=5" "guarded:witness counter n=6" \
    "guarded:tiling etp k=2 m=2" "guarded:tiling etp k=3 m=2" \
    "guarded:encode E4 depth=2"; do
    if ! grep -q "$row" BENCH_guarded.json; then
        echo "BENCH_guarded.json is missing the '$row' row" >&2
        exit 1
    fi
done

echo "==> automata-pipeline counters on the encode row"
# The encode row compiles one C-tree/2WAPA encoding end to end; it must
# surface the hash-consed B+(X) pool and the NTA fixpoint counters (both
# deterministic for a fixed workload).
jq -e 'map(select(.workload == "guarded:encode E4 depth=2")) | .[0]
    | .ctr_bf_nodes_interned >= 1
      and .ctr_fixpoint_rounds >= 1
      and .ctr_guarded_encodings_compiled == 1' \
    BENCH_guarded.json >/dev/null || {
    echo "guarded:encode row lost its pool/fixpoint counters" >&2
    exit 1
}

echo "==> guarded headline ceiling (tiling containment, k=2)"
# The committed best-of-3 is ~0.21 ms (propositional bitset fast path +
# relaxation pruning); the pre-optimization baseline was 1.087 ms. The
# gate trips well before the optimization is lost while tolerating a
# loaded machine.
jq -e 'map(select(.workload == "guarded:tiling etp k=2 m=2")) | .[0].wall_min_ms <= 0.8' \
    BENCH_guarded.json >/dev/null || {
    echo "guarded:tiling etp k=2 m=2 wall_min_ms regressed above the 0.8 ms ceiling" >&2
    exit 1
}

echo "==> rewriting bench sanity (every workload family present)"
for family in "rewrite:E3 nr" "rewrite:E2 sticky" "rewrite:E1 linear"; do
    if ! grep -q "$family" BENCH_rewrite.json; then
        echo "BENCH_rewrite.json is missing the '$family' rows" >&2
        exit 1
    fi
done
[ "$(jq length BENCH_rewrite.json)" -ge 5 ] || {
    echo "BENCH_rewrite.json has fewer rows than the committed sweep" >&2
    exit 1
}

echo "==> rewriting headline ceiling (cost-based adaptive planner, nr strata=4)"
# Loose tripwire, not the headline claim: the row took ~0.36 s best-of-3
# while XRewrite enumerated resolution orders and takes under 1 ms since it
# resolves one selected atom per query; the count gate below pins the work.
jq -e 'map(select(.workload == "rewrite:E3 nr strata=4")) | .[0].wall_ms <= 600' \
    BENCH_rewrite.json >/dev/null || {
    echo "rewrite:E3 nr strata=4 wall_ms regressed above the 600 ms ceiling" >&2
    exit 1
}

echo "==> rewriting count gate (selection over Datalog-defined predicates, nr strata=4)"
# Deterministic counts: resolving one selected atom per query reaches the
# single 16-atom disjunct from 15 candidates. Enumerating every resolution
# order in every subset again (63,953 candidates) trips this at once.
jq -e 'map(select(.workload == "rewrite:E3 nr strata=4")) | .[0]
    | .candidates <= 64 and .disjuncts == 1' BENCH_rewrite.json >/dev/null || {
    echo "rewrite:E3 nr strata=4 needs more than 64 candidates or lost its single disjunct" >&2
    exit 1
}

echo "==> adaptive-planner counters present in the BENCH files"
# Every BENCH file must surface the planner's work: perf_smoke rows carry
# plans_reoptimized per row, serve_bench reports the sweep-wide delta on
# its summary row.
for bench in BENCH_chase.json BENCH_rewrite.json BENCH_guarded.json; do
    jq -e '[.[] | select(has("plans_reoptimized"))] | length > 0' \
        "$bench" >/dev/null || {
        echo "$bench has no rows with the planner counters (plans_reoptimized)" >&2
        exit 1
    }
done

echo "==> serve smoke (omq-serve JSON-lines round trip, incl. a deliberate timeout)"
# Requests 10-14 exercise the C-tree encoding cache: a guarded lhs checked
# against two distinct rhs queries compiles its encoding once (id 12) and
# hits the cache on the second contains (id 13); the final stats op must
# report that warm hit, and both responses must render the identical
# guarded_encoding artifact regardless of cache state.
SERVE_OUT=$(printf '%s\n' \
  '{"id":1,"op":"register","name":"s","program":"P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nq(X) :- R(X,Y), P(Y)","schema":["P","R"],"query":"q"}' \
  '{"id":2,"op":"contains","lhs":"s","rhs":"s","deadline_ms":0}' \
  '{"id":3,"op":"contains","lhs":"s","rhs":"s"}' \
  '{"id":4,"op":"evaluate","name":"s","facts":["P(a)"]}' \
  '{"id":5,"op":"contains","lhs":"s","rhs":"s","trace":true}' \
  '{"id":6,"op":"explain","lhs":"s","rhs":"s"}' \
  '{"id":7,"op":"register","name":"t","program":"q(X) :- T(X)","schema":["T"],"query":"q"}' \
  '{"id":8,"op":"explain","lhs":"s","rhs":"t"}' \
  '{"id":9,"op":"stats"}' \
  '{"id":10,"op":"register","name":"g","program":"G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\nq :- R(X,Y), R(Y,Z)","schema":["G","R"],"query":"q"}' \
  '{"id":11,"op":"register","name":"g2","program":"q :- R(X,Y)","schema":["G","R"],"query":"q"}' \
  '{"id":12,"op":"contains","lhs":"g","rhs":"g2"}' \
  '{"id":13,"op":"contains","lhs":"g","rhs":"g"}' \
  '{"id":14,"op":"stats"}' \
  | ./target/release/omq-serve)
echo "$SERVE_OUT" | jq -s -e '
    length == 14
    and (.[0].ok and .[0].registered == "s")
    and (.[1].timed_out == true and .[1].verdict == "unknown")
    and (.[2].ok and .[2].verdict == "contained")
    and (.[3].ok and .[3].answers == [["a"]])
    and (.[4].ok and .[4].verdict == "contained" and (.[4].trace.phases | has("serve.contains")))
    and (.[5].ok and .[5].verdict == "contained" and (.[5].coverage.shown | length > 0))
    and (.[6].ok and .[6].registered == "t")
    and (.[7].ok and .[7].verdict == "not_contained" and (.[7] | has("derivation")))
    and (.[8].ok and .[8].registered == 2 and (.[8].latency | has("serve.contains")))
    and (.[9].ok and .[9].registered == "g")
    and (.[10].ok and .[10].registered == "g2")
    and (.[11].ok and .[11].guarded_encoding.consistent == true)
    and (.[12].ok and .[12].guarded_encoding == .[11].guarded_encoding)
    and (.[13].ok and .[13].encoding_cache_hits == 1)
' >/dev/null || {
    echo "serve smoke test failed; responses were:" >&2
    echo "$SERVE_OUT" >&2
    exit 1
}

echo "==> serve hostile-input smoke (200,000-deep nesting is refused, not a crash)"
# Without a nesting cap the recursive-descent JSON parser overflows its
# stack on such a line and the whole process aborts. With it the line gets
# a structured json error and the requests after it are still answered.
HOSTILE_STATUS=0
HOSTILE_OUT=$( { head -c 200000 /dev/zero | tr '\0' '['
    printf '\n%s\n%s\n' \
        '{"id":1,"op":"register","name":"h","program":"q(X) :- P(X)","schema":["P"],"query":"q"}' \
        '{"id":2,"op":"contains","lhs":"h","rhs":"h"}'
} | ./target/release/omq-serve) || HOSTILE_STATUS=$?
[ "$HOSTILE_STATUS" -eq 0 ] && echo "$HOSTILE_OUT" | jq -s -e '
    length == 3
    and (.[0].ok == false and .[0].error.kind == "json")
    and (.[1].ok and .[1].registered == "h")
    and (.[2].ok and .[2].verdict == "contained")
' >/dev/null || {
    echo "hostile-input smoke failed (exit $HOSTILE_STATUS); responses were:" >&2
    echo "$HOSTILE_OUT" >&2
    exit 1
}

echo "==> serve rollback smoke (a failed register leaves no symbols behind)"
# The bad program interns Zork, Quux and the constants a, b before its parse
# error. Had any of them reached the registry vocabulary, the frozen
# witness constants of the later contains would be numbered past them
# (f2, f3 instead of f0, f1), so its bytes must equal those of the same
# transcript without the bad line.
ROLLBACK_BASE='{"id":1,"op":"register","name":"base","program":"P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nq(X) :- R(X,Y), P(Y)","schema":["P","R"],"query":"q"}'
ROLLBACK_BAD='{"id":2,"op":"register","name":"bad","program":"Zork(X,a) -> Quux(X,b)\nQuux(X,Y) -> Blorp(X","schema":["Zork"],"query":"q"}'
ROLLBACK_TAIL=(
  '{"id":3,"op":"register","name":"z","program":"Zork(X,Y) -> exists Z . Quux(X,Z)\nq(X) :- Quux(X,Y)","schema":["Zork"],"query":"q"}'
  '{"id":4,"op":"contains","lhs":"z","rhs":"base"}'
)
ROLLBACK_OUT=$(printf '%s\n' "$ROLLBACK_BASE" "$ROLLBACK_BAD" "${ROLLBACK_TAIL[@]}" \
    | ./target/release/omq-serve --threads 1)
ROLLBACK_REF=$(printf '%s\n' "$ROLLBACK_BASE" "${ROLLBACK_TAIL[@]}" \
    | ./target/release/omq-serve --threads 1)
echo "$ROLLBACK_OUT" | sed -n 2p | jq -e '.ok == false and .error.kind == "parse"' >/dev/null || {
    echo "serve rollback smoke: the bad register got no parse error: $ROLLBACK_OUT" >&2
    exit 1
}
[ "$(echo "$ROLLBACK_OUT" | sed -n 4p)" = "$(echo "$ROLLBACK_REF" | sed -n 3p)" ] || {
    echo "serve rollback smoke: contains after a failed register differs" >&2
    echo "$ROLLBACK_OUT" | sed -n 4p >&2
    echo "$ROLLBACK_REF" | sed -n 3p >&2
    exit 1
}

echo "==> serve store smoke (assert/retract/snapshot/evaluate-at + compaction)"
# threshold 1 compacts after every unpinned mutation, so the smoke proves
# (a) compaction really runs, (b) the snapshot pin keeps version 1
# answerable and byte-stable while the head moves, (c) an unpinned
# pre-floor version fails with the structured stale_version kind, and
# (d) the stats op surfaces the store counter block.
STORE_OUT=$(printf '%s\n' \
  '{"id":1,"op":"register","name":"tc","program":"E(X,Y) -> T(X,Y)\nE(X,Y), T(Y,Z) -> T(X,Z)\nq(X,Y) :- T(X,Y)","schema":["E"],"query":"q"}' \
  '{"id":2,"op":"assert","name":"tc","facts":["E(a,b)","E(b,c)"]}' \
  '{"id":3,"op":"evaluate","name":"tc"}' \
  '{"id":4,"op":"snapshot","name":"tc"}' \
  '{"id":5,"op":"assert","name":"tc","facts":["E(c,d)"]}' \
  '{"id":6,"op":"evaluate","name":"tc","at":1}' \
  '{"id":7,"op":"evaluate","name":"tc"}' \
  '{"id":8,"op":"retract","name":"tc","facts":["E(b,c)"]}' \
  '{"id":9,"op":"evaluate","name":"tc"}' \
  '{"id":10,"op":"evaluate","name":"tc","at":0}' \
  '{"id":11,"op":"stats"}' \
  | ./target/release/omq-serve --store-compact-threshold 1)
echo "$STORE_OUT" | jq -s -e '
    length == 11
    and (.[0].ok and .[0].registered == "tc")
    and (.[1].ok and .[1].asserted == "tc" and .[1].version == 1 and .[1].compactions == 1)
    and (.[2].ok and .[2].count == 3 and .[2].guarantee == "exact" and .[2].version == 1)
    and (.[3].ok and .[3].snapshot == "tc" and .[3].version == 1 and .[3].pinned)
    and (.[4].ok and .[4].asserted == "tc" and .[4].version == 2 and .[4].maintained and .[4].complete)
    and (.[5].ok and .[5].count == 3 and .[5].version == 1 and .[5].answers == .[2].answers)
    and (.[6].ok and .[6].count == 6 and .[6].version == 2)
    and (.[7].ok and .[7].retracted == "tc" and .[7].version == 3)
    and (.[8].ok and .[8].count == 2 and .[8].guarantee == "exact")
    and (.[9].ok == false and .[9].error.kind == "stale_version")
    and (.[10].ok and .[10].store.stores == 1
         and .[10].store.compactions >= 1 and .[10].store.dred_deleted >= 1
         and (.[10].store | has("novelty_size")) and (.[10].store | has("rederived"))
         and .[10].store.incremental_resumes >= 1)
' >/dev/null || {
    echo "serve store smoke test failed; responses were:" >&2
    echo "$STORE_OUT" >&2
    exit 1
}

echo "==> serve coalescing smoke (identical in-flight burst shares one solver run)"
# Eight identical cold `contains` in one batch fan out together. The
# question is slow because of its size, not because of any solver waste:
# `q(X) :- A1(X), ..., A11(X)` where each `Ai` is defined from `Bi` or
# `Ci`, so the rewriting has 2^11 = 2,048 disjuncts and the containment
# check tests each one (~0.25 s). Every follower probes while the leader is
# still computing, so they coalesce onto its slot instead of re-running the
# solver. Gates: exactly one computation, a nonzero coalesced count, and
# byte-identical verdicts on every line. The overload and metrics smokes
# below reuse it as their slow blocker.
SLOW_REG='{"id":0,"op":"register","name":"slow","program":"'
SLOW_Q='q(X) :- A1(X)'
SLOW_SCHEMA='"B1","C1"'
for i in $(seq 1 11); do
    SLOW_REG+="B$i(X) -> A$i(X)\\nC$i(X) -> A$i(X)\\n"
    if [ "$i" -gt 1 ]; then
        SLOW_Q+=", A$i(X)"
        SLOW_SCHEMA+=",\"B$i\",\"C$i\""
    fi
done
SLOW_REG+="$SLOW_Q\",\"schema\":[$SLOW_SCHEMA],\"query\":\"q\"}"
COAL_OUT=$({ printf '%s\n\n' "$SLOW_REG"
    for i in $(seq 1 8); do
        printf '{"id":%d,"op":"contains","lhs":"slow","rhs":"slow"}\n' "$i"
    done
    printf '\n{"id":99,"op":"stats"}\n'; } | ./target/release/omq-serve --threads 8)
echo "$COAL_OUT" | jq -s -e '
    length == 10
    and ([.[1:9][] | select(.ok and .verdict == "contained")] | length == 8)
    and ([.[1:9][] | .verdict] | unique | length == 1)
    and (.[9].coalesced_hits >= 1)
    and (.[9].coalescing.computations == 1)
' >/dev/null || {
    echo "serve coalescing smoke failed; responses were:" >&2
    echo "$COAL_OUT" >&2
    exit 1
}

echo "==> serve stats smoke (stats and scrape agree, metrics counted once)"
# `stats` and `metrics` are rendered from one counter table. The
# verdict-cache hits `stats` reports must equal the scrape's value, and
# the second exposition must count the first `metrics` request exactly
# once.
STATS_OUT=$(printf '%s\n' \
  '{"id":1,"op":"register","name":"a","program":"P(X) -> R(X)\nq(X) :- R(X)","schema":["P"],"query":"q"}' \
  '{"id":2,"op":"register","name":"b","program":"q(X) :- P(X)","schema":["P"],"query":"q"}' \
  '{"id":3,"op":"contains","lhs":"a","rhs":"b"}' \
  '{"id":4,"op":"contains","lhs":"a","rhs":"b"}' \
  '{"id":5,"op":"assert","name":"a","facts":["P(c1)"]}' \
  '{"id":6,"op":"stats"}' \
  '{"id":7,"op":"metrics"}' \
  '{"id":8,"op":"metrics"}' \
  | ./target/release/omq-serve)
echo "$STATS_OUT" | jq -s -e '
    def series($name): .exposition | split("\n")
        | map(select(startswith($name + " "))) | .[0] | split(" ") | .[1] | tonumber;
    length == 8
    and (.[2].ok and .[2].verdict == "contained" and .[3].verdict == "contained")
    and (.[4].ok and .[4].asserted == "a")
    and (.[5].ok and .[5].store.asserts == 1)
    and (.[5].verdict_cache.hits == (.[7] | series("omq_cache_hits_total{cache=\"verdict\"}")))
    and ((.[7] | series("omq_requests_total{op=\"serve.metrics\"}")) == 1)
' >/dev/null || {
    echo "serve stats smoke failed; responses were:" >&2
    echo "$STATS_OUT" >&2
    exit 1
}

echo "==> serve overload smoke (reactor sheds with the structured shape)"
# A single-worker reactor with watermark 4: one connection pins the worker
# down with eight slow cold contains, so a second connection's solver
# probe must observe the saturated queue and come back with the structured
# `shed` error — while `stats` on the same batch is admitted and carries
# the reactor block. The blocker batch itself is answered in full:
# shedding refuses new work, it never poisons admitted work.
SHED_DIR=$(mktemp -d)
./target/release/omq-serve --listen 127.0.0.1:0 --workers 1 \
    --queue-watermark 4 --no-cache --threads 1 2>"$SHED_DIR/err" &
SHED_PID=$!
SHED_ADDR=""
for _ in $(seq 1 100); do
    SHED_ADDR=$(sed -n 's/^omq-serve: listening on \([0-9.:]*\) .*/\1/p' "$SHED_DIR/err")
    [ -n "$SHED_ADDR" ] && break
    sleep 0.05
done
[ -n "$SHED_ADDR" ] || {
    echo "reactor did not report its listen address" >&2
    kill "$SHED_PID" 2>/dev/null || true
    exit 1
}
SHED_PORT=${SHED_ADDR##*:}
exec 3<>"/dev/tcp/127.0.0.1/$SHED_PORT"
printf '%s\n\n' "$SLOW_REG" >&3
read -r SHED_REG <&3
exec 3<&- 3>&-
exec 4<>"/dev/tcp/127.0.0.1/$SHED_PORT"
{ for i in $(seq 1 8); do
    printf '{"id":%d,"op":"contains","lhs":"slow","rhs":"slow"}\n' "$i"
done
printf '\n'; } >&4
sleep 0.3
exec 5<>"/dev/tcp/127.0.0.1/$SHED_PORT"
printf '{"id":100,"op":"contains","lhs":"slow","rhs":"slow"}\n{"id":101,"op":"stats"}\n\n' >&5
read -r SHED_LINE <&5
read -r SHED_STATS <&5
exec 5<&- 5>&-
SHED_ANSWERED=0
while read -r -t 30 _ <&4; do
    SHED_ANSWERED=$((SHED_ANSWERED + 1))
    [ "$SHED_ANSWERED" -ge 8 ] && break
done
exec 4<&- 4>&-
kill "$SHED_PID" 2>/dev/null || true
wait "$SHED_PID" 2>/dev/null || true
echo "$SHED_REG" | jq -e '.ok and .registered == "slow"' >/dev/null || {
    echo "serve overload smoke: registration failed: $SHED_REG" >&2
    exit 1
}
echo "$SHED_LINE" | jq -e '
    .ok == false and .error.kind == "shed" and .error.retry == true
    and .error.queue_depth >= 4 and .error.watermark == 4
' >/dev/null || {
    echo "serve overload smoke: expected a structured shed, got: $SHED_LINE" >&2
    exit 1
}
echo "$SHED_STATS" | jq -e '
    .ok and .reactor.shed >= 1 and .reactor.watermark == 4
    and .reactor.connections.peak >= 2
' >/dev/null || {
    echo "serve overload smoke: stats lost the reactor block: $SHED_STATS" >&2
    exit 1
}
[ "$SHED_ANSWERED" -eq 8 ] || {
    echo "serve overload smoke: blocker got $SHED_ANSWERED/8 answers" >&2
    exit 1
}

echo "==> serve metrics smoke (live Prometheus scrape + tail-sampled trace_dump)"
# Both planes of one reactor: the protocol port answers requests, the
# --metrics-listen port answers raw-HTTP scrapes. Two scrapes bracket a
# mixed workload (contains, a zero-deadline timeout, store assert/retract,
# a forced shed behind a blocker), gating (a) that the request / shed /
# coalescing / store families are present on a cold scrape and (b) that
# the counters the workload must have moved increased monotonically.
# trace_dump must retain the timed-out and the shed request with reasons.
MET_DIR=$(mktemp -d)
./target/release/omq-serve --listen 127.0.0.1:0 --metrics-listen 127.0.0.1:0 \
    --workers 1 --queue-watermark 4 --no-cache --threads 1 2>"$MET_DIR/err" &
MET_PID=$!
MET_ADDR=""
MET_SCRAPE=""
for _ in $(seq 1 100); do
    MET_ADDR=$(sed -n 's/^omq-serve: listening on \([0-9.:]*\) .*/\1/p' "$MET_DIR/err")
    MET_SCRAPE=$(sed -n 's/^omq-serve: metrics on \([0-9.:]*\)$/\1/p' "$MET_DIR/err")
    [ -n "$MET_ADDR" ] && [ -n "$MET_SCRAPE" ] && break
    sleep 0.05
done
{ [ -n "$MET_ADDR" ] && [ -n "$MET_SCRAPE" ]; } || {
    echo "reactor did not report both listen addresses" >&2
    kill "$MET_PID" 2>/dev/null || true
    exit 1
}
MET_PORT=${MET_ADDR##*:}
SCRAPE_PORT=${MET_SCRAPE##*:}
scrape() {
    exec 9<>"/dev/tcp/127.0.0.1/$SCRAPE_PORT"
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&9
    cat <&9
    exec 9<&- 9>&-
}
metric() { echo "$1" | awk -v k="$2" '$1 == k { print $2; exit }'; }
# Warm-up batch before scrape 1: a store mutation, a deliberate timeout,
# and one full contains.
exec 3<>"/dev/tcp/127.0.0.1/$MET_PORT"
printf '%s\n' "$SLOW_REG" \
    '{"id":1,"op":"assert","name":"slow","facts":["B1(a)","C2(a)"]}' \
    '{"id":2,"op":"contains","lhs":"slow","rhs":"slow","deadline_ms":0}' \
    '{"id":3,"op":"contains","lhs":"slow","rhs":"slow"}' >&3
printf '\n' >&3
for _ in $(seq 1 4); do read -r -t 60 _ <&3; done
exec 3<&- 3>&-
# Presence gate: every family the workload exercised must appear. A
# couple of retries tolerate a scrape racing the tail of the batch.
MET_SERIES=(
    'omq_requests_total{op="serve.contains"}'
    'omq_request_timeouts_total{op="serve.contains"}'
    'omq_requests_shed_total'
    'omq_shed_slo_burn_ratio'
    'omq_coalesced_total'
    'omq_verdict_computations_total'
    'omq_store_ops_total{op="assert"}'
    'omq_store_maintenance_total{kind="incremental_resume"}'
    'omq_request_duration_us_bucket'
    'omq_reactor_requests_total'
    'omq_flight_offered_total'
)
SCRAPE1=""
MET_MISSING=""
for _ in $(seq 1 5); do
    SCRAPE1=$(scrape)
    MET_MISSING=""
    echo "$SCRAPE1" | grep -q '^HTTP/1.0 200 OK' || MET_MISSING="an HTTP 200"
    if [ -z "$MET_MISSING" ]; then
        for series in "${MET_SERIES[@]}"; do
            echo "$SCRAPE1" | grep -qF "$series" || {
                MET_MISSING="$series"
                break
            }
        done
    fi
    [ -z "$MET_MISSING" ] && break
    sleep 0.2
done
[ -z "$MET_MISSING" ] || {
    echo "cold scrape is missing $MET_MISSING; last scrape was:" >&2
    echo "$SCRAPE1" >&2
    kill "$MET_PID" 2>/dev/null || true
    exit 1
}
# Blocker pins the single worker; the probe on a saturated queue sheds.
exec 4<>"/dev/tcp/127.0.0.1/$MET_PORT"
{ for i in $(seq 1 8); do
    printf '{"id":%d,"op":"contains","lhs":"slow","rhs":"slow"}\n' "$i"
done
printf '\n'; } >&4
sleep 0.3
exec 5<>"/dev/tcp/127.0.0.1/$MET_PORT"
printf '{"id":100,"op":"contains","lhs":"slow","rhs":"slow"}\n\n' >&5
read -r MET_SHED <&5
exec 5<&- 5>&-
MET_ANSWERED=0
while read -r -t 30 _ <&4; do
    MET_ANSWERED=$((MET_ANSWERED + 1))
    [ "$MET_ANSWERED" -ge 8 ] && break
done
exec 4<&- 4>&-
echo "$MET_SHED" | jq -e '.ok == false and .error.kind == "shed"' >/dev/null || {
    echo "metrics smoke: expected a shed probe, got: $MET_SHED" >&2
    kill "$MET_PID" 2>/dev/null || true
    exit 1
}
# A store retract after the blocker drains, then the flight dump.
exec 6<>"/dev/tcp/127.0.0.1/$MET_PORT"
printf '%s\n' \
    '{"id":200,"op":"retract","name":"slow","facts":["B1(a)"]}' \
    '{"id":201,"op":"trace_dump"}' >&6
printf '\n' >&6
read -r -t 60 MET_RETRACT <&6
read -r -t 60 MET_DUMP <&6
exec 6<&- 6>&-
SCRAPE2=$(scrape)
kill "$MET_PID" 2>/dev/null || true
wait "$MET_PID" 2>/dev/null || true
echo "$MET_RETRACT" | jq -e '.ok and .retracted == "slow"' >/dev/null || {
    echo "metrics smoke: retract failed: $MET_RETRACT" >&2
    exit 1
}
echo "$MET_DUMP" | jq -e '
    .ok and has("slow_threshold_us")
    and ([.retained[].reason] | index("timeout") != null)
    and ([.retained[].reason] | index("shed") != null)
    and ([.retained[] | select(.reason == "timeout") | .spans[0].name]
         | index("serve.contains") != null)
' >/dev/null || {
    echo "metrics smoke: trace_dump lost the timeout/shed tail: $MET_DUMP" >&2
    exit 1
}
for pair in \
    'omq_requests_total{op="serve.contains"}:gt' \
    'omq_requests_shed_total:gt' \
    'omq_store_ops_total{op="retract"}:gt' \
    'omq_flight_offered_total:gt' \
    'omq_store_ops_total{op="assert"}:ge'; do
    series=${pair%:*}
    mode=${pair##*:}
    V1=$(metric "$SCRAPE1" "$series")
    V2=$(metric "$SCRAPE2" "$series")
    { [ -n "$V1" ] && [ -n "$V2" ]; } || {
        echo "series $series missing from a scrape (v1='$V1' v2='$V2')" >&2
        exit 1
    }
    if [ "$mode" = gt ]; then
        [ "$V2" -gt "$V1" ] || {
            echo "$series did not increase across the workload ($V1 -> $V2)" >&2
            exit 1
        }
    else
        [ "$V2" -ge "$V1" ] || {
            echo "$series went backwards across the workload ($V1 -> $V2)" >&2
            exit 1
        }
    fi
done

echo "==> serve restart smoke (persisted artifact tier survives a cold start)"
# Two separate omq-serve processes sharing one --cache-dir: the first
# computes and persists the rewriting artifact, the second must answer the
# identical contains from the disk tier (artifact_disk.hits >= 1) with
# byte-identical output — the tier rehydrates through the fresh
# vocabulary, so cache state can never leak into rendered bytes.
ART_DIR=$(mktemp -d)
LIN_REG='{"id":0,"op":"register","name":"lin","program":"P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nq(X) :- R(X,Y), P(Y)","schema":["P","R"],"query":"q"}'
ART_RUN1=$(printf '%s\n' "$LIN_REG" \
    '{"id":1,"op":"contains","lhs":"lin","rhs":"lin"}' '{"id":2,"op":"stats"}' \
    | ./target/release/omq-serve --cache-dir "$ART_DIR" --threads 1)
ART_RUN2=$(printf '%s\n' "$LIN_REG" \
    '{"id":1,"op":"contains","lhs":"lin","rhs":"lin"}' '{"id":2,"op":"stats"}' \
    | ./target/release/omq-serve --cache-dir "$ART_DIR" --threads 1)
echo "$ART_RUN1" | sed -n 3p | jq -e '.artifact_disk.stores >= 1' >/dev/null || {
    echo "serve restart smoke: first run persisted nothing: $ART_RUN1" >&2
    exit 1
}
echo "$ART_RUN2" | sed -n 3p | jq -e '
    .artifact_disk.hits >= 1 and .artifact_disk.stores == 0
' >/dev/null || {
    echo "serve restart smoke: second run missed the disk tier: $ART_RUN2" >&2
    exit 1
}
[ "$(echo "$ART_RUN1" | sed -n 2p)" = "$(echo "$ART_RUN2" | sed -n 2p)" ] || {
    echo "serve restart smoke: rehydrated answer differs from the cold one" >&2
    echo "$ART_RUN1" | sed -n 2p >&2
    echo "$ART_RUN2" | sed -n 2p >&2
    exit 1
}

echo "==> serve bench (writes BENCH_serve.json)"
cargo run -q --release -p omq-bench --bin serve_bench
[ "$(jq length BENCH_serve.json)" -ge 5 ] || {
    echo "BENCH_serve.json has fewer rows than the committed sweep" >&2
    exit 1
}
jq -e 'map(select(.workload == "serve:summary")) | .[0].speedup_warm_over_cold >= 10' \
    BENCH_serve.json >/dev/null || {
    echo "warm/cold containment speedup fell below the 10x floor" >&2
    exit 1
}
jq -e '[.[] | select(has("plans_reoptimized"))] | length > 0' \
    BENCH_serve.json >/dev/null || {
    echo "BENCH_serve.json has no rows with the planner counters (plans_reoptimized)" >&2
    exit 1
}
for row in \
    "serve:open-loop contains 1x shed" "serve:open-loop contains 1x noshed" \
    "serve:open-loop contains 2x shed" "serve:open-loop contains 2x noshed" \
    "serve:open-loop contains 4x shed" "serve:open-loop contains 4x noshed"; do
    if ! grep -q "$row" BENCH_serve.json; then
        echo "BENCH_serve.json is missing the '$row' open-loop row" >&2
        exit 1
    fi
done
# The point of admission control, stated as a gate: under 4x overload the
# answered-request tail with shedding stays below the unbounded noshed
# tail, and the shed row actually shed something (otherwise the comparison
# is vacuous).
jq -e '
    (map(select(.workload == "serve:open-loop contains 4x shed")) | .[0]) as $s
    | (map(select(.workload == "serve:open-loop contains 4x noshed")) | .[0]) as $n
    | $s.p99_us < $n.p99_us and $s.shed_pct > 0 and $n.shed_pct == 0
' BENCH_serve.json >/dev/null || {
    echo "open-loop 4x overload: shedding no longer bounds the p99 tail" >&2
    exit 1
}

echo "==> store bench (writes BENCH_store.json)"
cargo run -q --release -p omq-bench --bin store_bench
for row in \
    "store:assert chain=32 k=8 incremental" "store:assert chain=32 k=8 rechase" \
    "store:retract chain=32 mid dred" "store:compact chain=32 threshold=8"; do
    if ! grep -q "$row" BENCH_store.json; then
        echo "BENCH_store.json is missing the '$row' row" >&2
        exit 1
    fi
done
jq -e 'map(select(.workload == "store:summary"))
    | .[0].speedup_incremental_over_rechase >= 5' BENCH_store.json >/dev/null || {
    echo "incremental maintenance fell below the 5x speedup floor over re-chasing" >&2
    exit 1
}
# The maintenance counters are deterministic for the fixed workload: 8
# single-fact asserts resume the fixpoint 8 times and leave 40 novelty
# rows (32 base + 8 extension edges, threshold 0 = no auto-compaction).
jq -e 'map(select(.workload == "store:assert chain=32 k=8 incremental")) | .[0]
    | .novelty_size == 40 and .compactions == 0
      and .incremental_resumes == 8 and .full_rechases == 1' \
    BENCH_store.json >/dev/null || {
    echo "store:assert incremental row lost its novelty/maintenance counters" >&2
    exit 1
}
jq -e 'map(select(.workload == "store:retract chain=32 mid dred")) | .[0]
    | .dred_deleted >= 1 and has("rederived")' BENCH_store.json >/dev/null || {
    echo "store:retract row lost its DRed counters (dred_deleted/rederived)" >&2
    exit 1
}
jq -e 'map(select(.workload == "store:compact chain=32 threshold=8")) | .[0]
    | .compactions >= 1 and .novelty_size == 0' BENCH_store.json >/dev/null || {
    echo "store:compact row shows no compactions (threshold 8 must trigger)" >&2
    exit 1
}

echo "==> phase breakdown present in every BENCH row"
# The default-features build records a per-phase breakdown for every bench
# row (perf_smoke and serve_bench both run one instrumented pass per row);
# a row without any phase_*_us key means a workload escaped instrumentation.
for bench in BENCH_chase.json BENCH_rewrite.json BENCH_serve.json BENCH_guarded.json BENCH_store.json; do
    jq -e 'all(.[]; [keys[] | select(test("^phase_.*_us$"))] | length > 0)' \
        "$bench" >/dev/null || {
        echo "$bench has rows without a phase_*_us breakdown" >&2
        exit 1
    }
done

echo "==> source size: non-blank Rust lines before unit tests (information, not a gate)"
scripts/src_lines.sh

echo "==> bench diff vs committed baseline"
python3 scripts/bench_diff.py || true

echo "CI OK"
