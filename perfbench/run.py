"""Wall time per federated round of the FedOMD reproduction, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload fedomd-cora-p5 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with only the round
boundary and correctness probes installed.  ``--trace 1`` alternates
untraced and traced episodes, reports the per-layer metrics from the
traced ones and writes their spans to ``perfbench/out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (client local steps) and ``metrics``.  The exit code is 1 when
a correctness check fails.  ``perfbench/README.md`` explains the
workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
#: One BLAS thread, set before numpy loads.  With two on a shared 2-CPU
#: machine a single matmul's 97th-percentile time reached 6x its median
#: whenever the second CPU was busy elsewhere, and the round tail swung
#: by 21 % between runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: an untraced run measures at least this many rounds, for the tail
MIN_ROUNDS = 30


def blas_threads() -> int:
    """Threads of the OpenBLAS numpy loaded, or -1 when it cannot be asked."""
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return -1
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(setups, untraced) -> tuple:
    """The six user-facing metrics, plus a description of the tail."""
    from harness import median, round_profile, tail_percentile

    rounds = [t for ep in untraced for t in ep.round_times]
    p, tail, beyond = tail_percentile(round_profile([ep.round_times for ep in untraced]))
    ep = untraced[0]
    metrics = {
        "setup_s": _metric(median([s.times["total"] for s in setups]), "s"),
        "round_s": _metric(median(rounds), "s"),
        "round_tail_s": _metric(tail, "s"),
        "final_test_acc": _metric(ep.final_test_acc, "fraction"),
        "round_bytes": _metric(sum(ep.bytes_by_kind.values()) / ep.rounds, "bytes"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail_info = {"percentile": p, "rounds": len(rounds), "rounds_beyond": beyond}
    return metrics, tail_info


def per_layer(setups, untraced, traced) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of the traced episodes, normalised per round."""
    from harness import median
    from workloads import COMM, PHASES

    from repro.federated.comm import KIND_MEANS, KIND_MOMENTS, KIND_WEIGHTS

    tot: Dict[str, float] = {}
    for ep in traced:
        for key, value in ep.layers.items():
            tot[key] = tot.get(key, 0.0) + value
    n = sum(ep.rounds for ep in traced)

    def per_round(key: str) -> float:
        return tot.get(key, 0.0) / n

    phases = {ph: per_round(f"phase.{ph}") for ph in sorted(set(PHASES.values()))}
    flops = sum(ep.matmul_flops for ep in traced)
    useful = sum(ep.matmul_useful_flops for ep in traced)

    def traffic(*kinds: str) -> float:
        return sum(ep.bytes_by_kind.get(k, 0) for ep in traced for k in kinds) / n

    untraced_round = median([t for ep in untraced for t in ep.round_times])
    traced_round = median([t for ep in traced for t in ep.round_times])
    s, c = "s/round", "calls/round"
    out = {
        "graphs.generate_s": _metric(median([x.times["generate"] for x in setups]), "s"),
        "graphs.partition_s": _metric(median([x.times["partition"] for x in setups]), "s"),
        "federated.trainer_init_s": _metric(
            median([x.times["trainer_init"] for x in setups]), "s"
        ),
        "federated.round_traced_s": _metric(per_round("round"), s),
        "federated.exchange_s": _metric(phases["exchange"], s),
        "federated.train_s": _metric(phases["train"], s),
        "federated.aggregate_s": _metric(phases["aggregate"], s),
        "federated.eval_s": _metric(phases["eval"], s),
        "federated.loop_self_s": _metric(per_round("round") - sum(phases.values()), s),
        "gnn.forward.calls": _metric(per_round("gnn.forward.calls"), c),
        "gnn.forward.train_s": _metric(per_round("gnn.forward.train"), s),
        "gnn.forward.exchange_s": _metric(per_round("gnn.forward.exchange"), s),
        "gnn.forward.eval_s": _metric(per_round("gnn.forward.eval"), s),
        "federated.evaluate.calls": _metric(per_round("federated.evaluate.calls"), c),
        "autograd.matmul_s": _metric(per_round("autograd.matmul"), s),
        "autograd.matmul.calls": _metric(per_round("autograd.matmul.calls"), c),
        "autograd.matmul.useful_flop_ratio": _metric(useful / flops if flops else 1.0, "ratio"),
        "autograd.spmm_s": _metric(per_round("autograd.spmm"), s),
        "autograd.spmm.calls": _metric(per_round("autograd.spmm.calls"), c),
        "autograd.power_s": _metric(per_round("autograd.power"), s),
        "autograd.power.calls": _metric(per_round("autograd.power.calls"), c),
        "autograd.backward_s": _metric(per_round("autograd.backward"), s),
        "nn.adam_step_s": _metric(per_round("nn.adam_step"), s),
        "core.moments_s": _metric(per_round("core.moment_exchange"), s),
        "core.cmd_s": _metric(per_round("core.cmd"), s),
        "federated.comm_s": _metric(per_round(COMM), s),
        "federated.comm.messages": _metric(
            sum(ep.messages for ep in traced) / n, "messages/round"
        ),
        "federated.comm.weights_bytes": _metric(traffic(KIND_WEIGHTS), "bytes/round"),
        "federated.comm.stats_bytes": _metric(traffic(KIND_MEANS, KIND_MOMENTS), "bytes/round"),
        "federated.async.late_updates": _metric(
            sum(ep.late_updates for ep in traced) / n, "updates/round"
        ),
        "federated.async.fold_s": _metric(per_round("federated.fold_arrivals"), s),
        "federated.async.virtual_s": _metric(
            sum(ep.virtual_s for ep in traced) / n, "virtual_s/round"
        ),
        "obs.trace_overhead_ratio": _metric(traced_round / untraced_round, "ratio"),
    }
    return out


def write_trace(path: Path, traced, context: dict) -> None:
    """Span totals by name over the traced episodes, and the last round's spans."""
    totals: Dict[str, Dict[str, float]] = {}
    for ep in traced:
        for name, row in ep.span_table.items():
            acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
    payload = {
        "context": context,
        "totals_by_span": totals,
        "last_round_spans": traced[-1].last_round,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    os.replace(tmp, path)


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set-ups, then the episodes that fill ``seconds`` on the reference machine.

    The episode count depends only on ``seconds``, never on how fast this
    run happens to go, so every run averages the same mix of rounds: the
    first rounds of an episode are slower on the async engine.
    """
    from workloads import run_episode, setup

    setups = []
    for _ in range(SETUP_REPEATS):
        if setups:
            setups[-1].parts = []  # only the last set-up's parties stay alive
        setups.append(setup(workload, seed))
    parts = setups[-1].parts
    per_episode = workload.episode_seconds * (2 if trace else 1)
    episodes = max(1, round(seconds / per_episode))
    if not trace:
        episodes = max(episodes, math.ceil(MIN_ROUNDS / workload.rounds))
    untraced, traced = [], []
    for _ in range(episodes):
        untraced.append(run_episode(workload, parts, seed, traced=False))
        if trace:
            traced.append(run_episode(workload, parts, seed, traced=True))
    return setups, untraced, traced


def checks_of(setups, untraced, traced) -> Dict[str, bool]:
    episodes = untraced + traced
    checks = {
        "inputs_reproducible": len({s.inputs_digest for s in setups}) == 1,
        "episodes_reproducible": len({ep.digest for ep in untraced}) == 1,
    }
    if traced:
        checks["traced_digest_equal"] = {ep.digest for ep in traced} == {untraced[0].digest}
    for name in sorted({k for ep in episodes for k in ep.checks}):
        checks[name] = all(ep.checks.get(name, True) for ep in episodes)
    return checks


def main(argv: Sequence[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import scipy

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    setups, untraced, traced = measure(workload, args.seed, args.seconds, bool(args.trace))
    checks = checks_of(setups, untraced, traced)
    attempted = sum(ep.steps for ep in untraced + traced)
    failed = sum(ep.bad_steps for ep in untraced + traced)
    if not all(checks.values()):
        failed = attempted
    correct = failed == 0

    e2e, tail = end_to_end(setups, untraced)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "num_workers": 1,
        "setup_repeats": len(setups),
        "rounds_per_episode": workload.rounds,
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "round_tail": tail,
        "digest": untraced[0].digest,
        "checks": checks,
    }
    if args.trace:
        metrics = per_layer(setups, untraced, traced)
        out = HERE / "out" / f"{workload.name}-seed{args.seed}.trace.json"
        write_trace(out, traced, context)
        context["trace_file"] = str(out.relative_to(ROOT))
    else:
        metrics = e2e
    print("context " + json.dumps(context, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  round_tail_s is p{tail['percentile']} of {tail['rounds']} rounds "
              f"({tail['rounds_beyond']} rounds beyond it)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
