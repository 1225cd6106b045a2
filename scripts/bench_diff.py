#!/usr/bin/env python3
"""Diff the working-tree BENCH_*.json files against the committed baseline.

Usage:
    scripts/bench_diff.py [--strict] [FILE ...]

With no FILE arguments, every ``BENCH_*.json`` in the repository root is
diffed against ``git show HEAD:<file>``. Records are matched by their
``workload`` key; for each match the wall-clock delta is reported, and any
drift in a *counter* column is flagged — counters are deterministic, so a
counter drift is a semantics change, not noise. Timing-derived fields are
never counters: any key ending in ``_ms``, ``_us`` or ``_pct``, or
starting with ``speedup`` (the BENCH_serve.json throughput ratios), is
noise. That rule covers the per-phase columns (``phase_*_us``,
``phase_*_p50_us``, ``phase_*_p99_us``), the best-of-N spread
(``wall_min_ms`` / ``wall_max_ms``) and the open-loop shed rates
(``shed_pct`` — how many arrivals the admission controller refused is a
function of timing, not semantics) without special cases.

Two report-only markers refine the noise story:

* ``NOISY`` — the current row's best-of-N spread is wide
  (``wall_max_ms > 1.5 * wall_min_ms``), so its wall-clock delta should
  not be trusted; also emitted when ``wall_min_ms`` (the best run, the
  most noise-resistant wall figure) regressed by more than 20% vs the
  baseline while still under any ceiling — a slow creep the ceiling
  tripwire would miss;
* ``PHASE`` — a phase's *share* of the row's total phase time moved by
  more than 0.15 vs the baseline. Phase totals come from a separate
  instrumented pass (see ``omq_bench::obsjson``), so absolute phase times
  are not comparable to ``wall_ms`` — shares are the stable signal.

Exit status: 0 normally; with ``--strict``, 1 if any counter drifted or any
baseline workload disappeared (wall-clock changes, NOISY and PHASE markers
never fail the diff).
"""

import glob
import json
import os
import re
import subprocess
import sys

# Wall-clock ceilings for headline rows, in ms. Unlike counter drifts these
# are noise-tolerant tripwires (set well above the committed numbers); a
# breach is still reported as a hard drift because it means a tracked
# optimisation regressed, not that the machine was busy.
WALL_CEILINGS = {
    # Committed best-of-3 was ~0.36 s while XRewrite enumerated resolution
    # orders and is under 1 ms with its selection rule (scripts/ci.sh gates
    # the row's candidate count); the ceiling is the tightened
    # post-adaptive-planner tripwire (was 700).
    "rewrite:E3 nr strata=4": 600.0,
    # Committed best-of-3 is ~0.21 ms (propositional bitset fast path +
    # relaxation pruning; pre-optimization baseline 1.087 ms). Mirrors the
    # jq gate in scripts/ci.sh, slightly looser since wall_ms (not the
    # best-of minimum) is what the diff checks.
    "guarded:tiling etp k=2 m=2": 0.9,
    # Committed best-of-3 is ~0.45 ms (8 watermark-resumed asserts on the
    # chain-32 TC store); the naive re-chase comparator runs ~3.6 ms, so a
    # breach means incrementality itself regressed, not just the machine.
    "store:assert chain=32 k=8 incremental": 2.5,
}

# Tail-latency ceilings for the open-loop serve rows, in µs on ``p99_us``.
# The whole point of admission control is that the answered-request tail
# stays bounded under overload: with watermark 16 an admitted request waits
# at most ~16 service times (~5 ms committed, vs ~50 ms unbounded in the
# matching `noshed` row). The ceiling is set several times above the
# committed figure so only a broken admission path — not a busy machine —
# can breach it.
P99_CEILINGS = {
    "serve:open-loop contains 2x shed": 30000.0,
    "serve:open-loop contains 4x shed": 30000.0,
}


def load_baseline(path):
    """The committed version of *path*, or None if it is not in HEAD."""
    rel = os.path.relpath(path)
    try:
        out = subprocess.run(
            ["git", "show", f"HEAD:{rel}"],
            capture_output=True,
            check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None
    return json.loads(out)


def is_noise(key):
    """Timing-derived fields — reported but never treated as counters."""
    return (
        key == "workload"
        or key.endswith("_ms")
        or key.endswith("_us")
        or key.endswith("_pct")
        or key.endswith("_ratio")
        or key.startswith("speedup")
    )


def by_workload(records):
    return {r["workload"]: r for r in records}


# A phase *total* column: phase_<name>_us, excluding the percentile columns.
PHASE_TOTAL = re.compile(r"^phase_.*_us$")
PHASE_PCTL = re.compile(r"_p\d+_us$")


def phase_shares(record):
    """Each phase total as a share of the row's summed phase time."""
    totals = {
        k: v
        for k, v in record.items()
        if PHASE_TOTAL.match(k) and not PHASE_PCTL.search(k)
    }
    grand = sum(totals.values())
    if not grand:
        return {}
    return {k: v / grand for k, v in totals.items()}


def diff_file(path):
    """Diffs one file; returns the number of hard (counter) drifts."""
    with open(path, encoding="utf-8") as f:
        current = by_workload(json.load(f))
    baseline_records = load_baseline(path)
    print(f"== {path}")
    if baseline_records is None:
        print("   (no committed baseline; skipping)")
        return 0
    baseline = by_workload(baseline_records)

    drifts = 0
    for name, base in baseline.items():
        cur = current.get(name)
        if cur is None:
            print(f"   MISSING  {name}: present in baseline, absent now")
            drifts += 1
            continue
        b_ms, c_ms = base.get("wall_ms", 0.0), cur.get("wall_ms", 0.0)
        rel = (c_ms - b_ms) / b_ms * 100 if b_ms else float("inf")
        marker = " " if abs(rel) < 20 else ("+" if rel > 0 else "-")
        print(f"  {marker} {name:<40} {b_ms:9.3f} -> {c_ms:9.3f} ms ({rel:+6.1f}%)")
        lo, hi = cur.get("wall_min_ms"), cur.get("wall_max_ms")
        if lo is not None and hi is not None and hi > 1.5 * lo:
            print(
                f"   NOISY    {name}: best-of spread {lo:.3f}..{hi:.3f} ms"
                " — wall delta untrustworthy"
            )
        b_lo = base.get("wall_min_ms")
        if b_lo and lo is not None and lo > 1.2 * b_lo:
            print(
                f"   NOISY    {name}: wall_min_ms {b_lo:.3f} -> {lo:.3f} ms"
                " (best run regressed >20% vs baseline; report-only)"
            )
        base_shares = phase_shares(base)
        for key, share in sorted(phase_shares(cur).items()):
            b_share = base_shares.get(key)
            if b_share is not None and abs(share - b_share) > 0.15:
                print(
                    f"   PHASE    {name}: {key} share"
                    f" {b_share:.2f} -> {share:.2f}"
                )
        ceiling = WALL_CEILINGS.get(name)
        if ceiling is not None and c_ms > ceiling:
            print(f"   CEILING  {name}: wall_ms {c_ms:.3f} > {ceiling:.0f}")
            drifts += 1
        p99_ceiling = P99_CEILINGS.get(name)
        c_p99 = cur.get("p99_us")
        if p99_ceiling is not None and c_p99 is not None and c_p99 > p99_ceiling:
            print(
                f"   CEILING  {name}: p99_us {c_p99:.1f} > {p99_ceiling:.0f}"
                " — the shed tail is no longer bounded"
            )
            drifts += 1
        for key in sorted(set(base) | set(cur)):
            if is_noise(key):
                continue
            if base.get(key) != cur.get(key):
                print(
                    f"   COUNTER  {name}: {key} {base.get(key)} -> {cur.get(key)}"
                )
                drifts += 1
    for name in current:
        if name not in baseline:
            print(f"   NEW      {name}: not in baseline")
    return drifts


def main():
    args = sys.argv[1:]
    strict = "--strict" in args
    files = [a for a in args if a != "--strict"]
    if not files:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        files = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not files:
        print("no BENCH_*.json files found", file=sys.stderr)
        sys.exit(1)
    drifts = sum(diff_file(f) for f in files)
    if drifts:
        print(f"{drifts} counter drift(s) — semantics changed, not noise")
        if strict:
            sys.exit(1)


if __name__ == "__main__":
    main()
