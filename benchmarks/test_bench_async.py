"""Async-engine load bench: N churning clients, barrier vs quorum legs.

Runs the ``loadtest`` experiment (``repro.experiments.loadtest``): every
client under the same seeded latency model and straggler/drop/crash
fault plan, once at ``quorum=1.0`` (barrier-equivalent timing — the
round ends at the last arrival) and once at the configured quorum.
Both legs advance a :class:`~repro.federated.clock.VirtualClock`, so
the round-throughput ratio is *deterministic* for a given seed: the
``>= 2x`` speedup gate cannot flake on runner load, and is asserted at
every scale.

Results merge into ``results/bench/BENCH_async.json`` (per-mode keys)
and append to the bench history for trajectory tracking; the committed
``BENCH_async.json`` at the repo root is the baseline, never rewritten
by a bench run.

Scale knob: ``REPRO_BENCH_ASYNC_SCALE=smoke`` (CI) runs 60 clients;
``full`` (the default) is the 1000-client acceptance run.
"""

import json
import os

from repro.experiments.loadtest import run as run_loadtest

SCALE = os.environ.get("REPRO_BENCH_ASYNC_SCALE", "full")
MIN_THROUGHPUT_SPEEDUP = 2.0


def test_bench_async_round_throughput(bench_out, bench_dir):
    bench_path = os.path.join(bench_dir, "BENCH_async.json")
    result = run_loadtest(mode=SCALE, out_dir=bench_out, bench_path=bench_path)
    print("\n" + result.render())

    with open(bench_path) as f:
        bench = json.load(f)
    assert SCALE in bench
    entry = bench[SCALE]

    for leg in ("barrier", "async"):
        assert entry[leg]["rounds"] > 0
        assert entry[leg]["virtual_time"] > 0
    # The async leg must fold stragglers into later rounds rather than
    # discarding everything: at least one staleness-weighted update.
    assert entry["async"]["late_updates"] > 0
    assert entry["throughput_speedup"] >= MIN_THROUGHPUT_SPEEDUP, (
        f"async engine only {entry['throughput_speedup']:.2f}x the barrier "
        f"round throughput under churn (need >= {MIN_THROUGHPUT_SPEEDUP}x)"
    )
