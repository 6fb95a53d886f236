"""grasp-vl benchmark: times workloads end to end and, when traced, layer by layer.

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 35 --trace 0

Each workload runs in fresh Python processes (``worker.py``) with BLAS pinned
to one thread, as a closed loop with one client: each verb starts when the
previous one returns.

With ``--trace 0`` a run makes ``SETUPS - 1`` set-up-only processes and one
process that runs the whole workload and then times the ``eval`` verb again
for at least five seconds and until ``--seconds`` have passed since the run
began.  ``setup_s`` is the
median of the ``SETUPS`` set-ups and ``eval_s`` the fastest eval call.
With ``--trace 1`` a run makes one untraced and one traced process; the
result carries the per-layer metrics and the tracing overhead.

The last line of standard output is the result object, with the metrics
``BENCHMARK.json`` declares.  The line before it records the BLAS threads in
force, nproc and the library versions.  Working files go to ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, spec  # noqa: E402
from worker import THREAD_VARS, tree_sha256  # noqa: E402

BLAS_THREADS = "1"
SETUPS = 5
RUN_BUDGET_S = 175.0  # every run must end within 180 s


class Runner:
    """Starts the processes of one run and returns their results."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        self.count = 0
        self.env = dict(os.environ, **{v: BLAS_THREADS for v in THREAD_VARS})

    def rep(self, *flags: str) -> dict:
        """Run one worker process with ``flags``; its result."""
        self.count += 1
        run_dir = self.work / f"rep{self.count}"
        run_dir.mkdir()
        (run_dir / "spec.json").write_text(json.dumps(spec(self.workload, self.seed), indent=2), encoding="utf-8")
        result_path = self.work / f"rep{self.count}.json"
        log_path = self.work / f"rep{self.count}.log"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--dir", str(run_dir), "--result", str(result_path),
            "--spans", str(self.work.parent / f"last-{self.workload}-s{self.seed}.spans.jsonl"),
            *flags,
        ]
        with open(log_path, "wb") as log:
            t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.run(
                cmd + ["--t0", str(t0)],
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=max(1.0, RUN_BUDGET_S - (t0 - self.started_ns) / 1e9),
            )
        shutil.rmtree(run_dir)
        if proc.returncode != 0 or not result_path.is_file():
            tail = log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
        return json.loads(result_path.read_text(encoding="utf-8"))


def _determinism_ops(reps, record_path: Path, workload: str, seed: int) -> list:
    """Equal output trees across this run's processes and earlier runs of the same seed and source."""
    hashes = [r.get("tree_sha256") for r in reps]
    ops = [("same_tree_within_run", h is not None and h == hashes[0], h or "") for h in hashes[1:]]
    if hashes[0] is None:
        return ops
    key = f"{workload}:{seed}:{tree_sha256(ROOT / 'src', '*.py')}:{tree_sha256(HERE, '*.py')}"
    record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.is_file() else {}
    if key in record:
        ops.append(("same_tree_as_earlier_runs", record[key] == hashes[0], record[key]))
    else:
        record[key] = hashes[0]
        tmp = record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, record_path)
    return ops


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path):
    """(metrics by name, ops, the full workload process's result, every process's result)."""
    runner = Runner(workload, seed, work)
    setup_only = [] if trace else [runner.rep("--setup-only") for _ in range(SETUPS - 1)]
    full = runner.rep() if trace else runner.rep("--eval-until", str(runner.started_ns + int(seconds * 1e9)))
    workload_runs = [full, runner.rep("--trace")] if trace else [full]

    ops = [tuple(op) for r in workload_runs + setup_only for op in r["ops"]]
    ops += _determinism_ops(workload_runs, work.parent / "hashes.json", workload, seed)

    metrics = {k: full.get(k) for k in ("wall_s", "eval_s", "peak_rss_mb", "stair")}
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in [full, *setup_only])
    traced = workload_runs[-1]
    if trace and full.get("wall_s") and traced.get("wall_s"):
        metrics["trace_overhead_ratio"] = traced["wall_s"] / full["wall_s"]
        metrics.update(traced["layer"])
    return metrics, ops, full, workload_runs + setup_only


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "grasp_vl" / "cli.py").is_file() or not bench_file.is_file():
        print("no grasp_vl source (src/grasp_vl) or BENCHMARK.json beside the benchmark", file=sys.stderr)
        return 2
    declared = json.loads(bench_file.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base, prefix=f"{args.workload}-s{args.seed}-") as tmp:
        try:
            metrics, ops, full, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark run failed: {exc}", file=sys.stderr)
            return 1
    summary = base / f"last-{args.workload}-s{args.seed}-trace{args.trace}.json"
    summary.write_text(json.dumps({"metrics": metrics, "ops": ops, "reps": reps}, indent=1), encoding="utf-8")

    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    if missing:
        failed_ops = [op for op in ops if not op[1]]
        print(f"no value for {missing}; failed operations: {failed_ops}", file=sys.stderr)
        return 1
    failed = sum(1 for op in ops if not op[1])
    info = {
        "env": full.get("env"),
        "processes": len(reps),
        "min_sel_at_kappa": full.get("min_sel_at_kappa"),
        "failed_ops": [op for op in ops if not op[1]],
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
