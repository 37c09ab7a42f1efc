"""Model-checker throughput bench: schedules/sec and DPOR pruning ratio.

Runs ``repro.analysis.modelcheck`` end-to-end — baseline run, schedule
enumeration, one controlled federated run per schedule, digest
comparison — and merges the throughput metrics into
``results/bench/BENCH_modelcheck.json`` (per-mode keys, same convention
as ``BENCH_async.json``); the committed ``BENCH_modelcheck.json`` at the
repo root is the baseline, never rewritten by a bench run.

Scale knob: ``REPRO_BENCH_MODELCHECK_SCALE=smoke`` (CI) explores 24
schedules over 3 clients; ``full`` (the default) is the 120-schedule
4-client acceptance configuration.
"""

import json
import os

from repro.analysis.modelcheck import main as mc_main

SCALE = os.environ.get("REPRO_BENCH_MODELCHECK_SCALE", "full")

CONFIGS = {
    "smoke": ["--clients", "3", "--rounds", "2", "--max-schedules", "24"],
    "full": ["--clients", "4", "--rounds", "2", "--max-schedules", "120"],
}
MIN_SCHEDULES = {"smoke": 24, "full": 100}
#: Generous wall-clock gate per schedule; the committed baseline and
#: ``repro.obs.bench check`` track the real trajectory.
MAX_PER_SCHEDULE_S = 1.0


def test_bench_modelcheck_throughput(capsys, bench_dir):
    bench_path = os.path.join(bench_dir, "BENCH_modelcheck.json")
    argv = CONFIGS[SCALE] + [
        "--resume-checks", "2",
        "--mode", SCALE,
        "--bench-out", bench_path,
    ]
    assert mc_main(argv) == 0, "explored schedules must be bitwise-equivalent"
    print("\n" + capsys.readouterr().out)

    with open(bench_path) as f:
        bench = json.load(f)
    assert SCALE in bench
    entry = bench[SCALE]

    assert entry["schedules"] >= MIN_SCHEDULES[SCALE]
    assert 0 < entry["per_schedule_s"] < MAX_PER_SCHEDULE_S
    # DPOR keeps a strict subset of the raw (n!)^rounds space.
    assert 0 < entry["dpor_kept_ratio"] < 1
