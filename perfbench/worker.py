"""One benchmark pass in a fresh interpreter: set up, run the tasks, check.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--records]

Set-up time runs from before sparselab is imported until the inputs exist
and the oracle files are loaded.  The task loop is timed with nothing else
in it; the checks run afterwards.  The last line of stdout is one JSON
object with the pass's times, peak memory, task outcomes and, when traced,
its spans and per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
ORACLES = HERE / "oracles.json"

# Per-layer metrics: summed span time of these benchmark calls, then counts.
BUSY_SPANS = [
    "sample.make_corpus",
    "pdo.apply",
    "pdo.lp_piece_apply",
    "pdo.spatial_piece_apply",
    "maximal.maximal_p",
    "maximal.sharp_maximal",
    "sparse.build_stopping_time",
    "sparse.verify_sparsity",
    "sparse.build_whitney_sparse",
    "verify.sparse_form_ratio",
    "verify.pointwise_domination_check",
    "verify.norm_scaling_fit",
    "verify.empirical_norm",
    "verify.schur_bound",
    "verify.kernel_decay_fit",
    "verify.kernel_difference_probe",
    "verify.sharp_ratio_probe",
    "verify.endpoint_audit",
    "cli.run",
]
COUNTS = [
    "maximal.cells",
    "sparse.entries",
    "sparse.max_rank",
    "sparse.survivor_cells",
    "verify.norm_iterations",
    "verify.norm_capped",
    "verify.norm_kind.exact",
    "verify.norm_kind.iterated",
    "verify.norm_kind.lower_bound",
    "cli.probe_s",
    "cli.report_bytes",
]


def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


class TaskError(str):
    """Traceback tail of a task whose program call raised."""


def run_pass(name: str, seed: int, tracer, t0: float):
    """Set up and run one workload's task list; returns the set-up context,
    tasks, outputs (an exception text for a task that raised), set-up
    seconds and task-loop seconds."""
    import workloads

    setup, make_tasks = workloads.WORKLOADS[name]
    ctx = setup(seed, tracer)
    ctx["goldens"] = load_json(GOLDENS)
    ctx["oracles"] = load_json(ORACLES)
    setup_s = time.perf_counter() - t0

    tasks = make_tasks(ctx)
    outputs = []
    t1 = time.perf_counter()
    for task in tasks:
        with tracer.task(task.id):
            try:
                out = task.run(tracer)
            except Exception as exc:  # a raising call is a failed task
                tail = traceback.format_exception(exc)[-3:]
                out = TaskError("".join(tail).strip())
        outputs.append(out)
    wall_s = time.perf_counter() - t1
    return ctx, tasks, outputs, setup_s, wall_s


def _close(got, want, rtol: float, atol: float) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, rtol, atol) for g, w in zip(got, want))
        )
    if isinstance(want, bool) or (isinstance(want, int) and isinstance(got, int)):
        return got == want
    if not isinstance(got, (int, float)):
        return False
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def compare_golden(record: dict, golden: dict, rtol: float, atol: float) -> list:
    fails = []
    for k, want in golden.get("digests", {}).items():
        if record["digests"].get(k) != want:
            fails.append(["golden", f"digest {k} changed"])
    for k, want in golden.get("values", {}).items():
        got = record["values"].get(k)
        if not _close(got, want, rtol, atol):
            fails.append(["golden", f"{k}: {got!r} vs recorded {want!r}"])
    return fails


def tolerances(goldens: dict) -> dict:
    return {"rtol": goldens.get("rtol", 0.0), "atol": goldens.get("atol", 0.0)}


def goldens_for(goldens: dict, workload: str, seed: int) -> dict:
    """Recorded task records of one workload at one seed (empty if none)."""
    return goldens.get("seeds", {}).get(str(seed), {}).get(workload, {})


def check_pass(tasks, outputs, golden: dict, tols: dict, oracles: dict) -> list[dict]:
    """Check every task; returns one result per task with its record,
    failures (golden drift included) and counts.  ``tols`` holds the
    goldens' ``rtol`` and ``atol``."""
    import workloads

    results = []
    for task, out in zip(tasks, outputs):
        c = workloads.Checker()
        if isinstance(out, TaskError):
            c.failures.append(["error", str(out)])
        else:
            try:
                task.check(out, oracles, c)
            except Exception as exc:  # a malformed output fails its task
                c.failures.append(["error", f"check raised {type(exc).__name__}: {exc}"])
        record = {"values": c.values, "digests": c.digests}
        if task.id in golden and not isinstance(out, TaskError):
            c.failures += compare_golden(record, golden[task.id], tols["rtol"], tols["atol"])
        results.append(
            {"task": task.id, "failures": c.failures, "record": record, "counts": c.counts}
        )
    return results


def layer_metrics(spans: list, results: list) -> dict:
    from tracing import busy_by_name, task_self_time

    busy = busy_by_name(spans)
    out = {f"{n}.busy_s": busy.get(n, 0.0) for n in BUSY_SPANS}
    import workloads

    totals = {n: 0 for n in COUNTS}
    for r in results:
        for k, v in r["counts"].items():
            workloads.merge_count(totals, k, v)
    out.update(totals)
    out["cli.overhead_s"] = out["cli.run.busy_s"] - out["cli.probe_s"]
    out["bench.task_self_s"] = task_self_time(spans)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (children run one at a time, beside this one; 0 when there were none)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--records", action="store_true", help="include task records (for goldens)")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer

    tracer = Tracer(bool(args.trace))
    ctx, tasks, outputs, setup_s, wall_s = run_pass(args.workload, args.seed, tracer, T0)
    import workloads

    try:
        digest = workloads.input_digest(args.workload, ctx)
        golden = goldens_for(ctx["goldens"], args.workload, args.seed)
        results = check_pass(tasks, outputs, golden, tolerances(ctx["goldens"]), ctx["oracles"])
    finally:
        workloads.cleanup(ctx)

    failures = [
        {"task": r["task"], "class": cls, "message": msg}
        for r in results
        for cls, msg in r["failures"]
    ]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(tasks),
        "failed": sum(1 for r in results if r["failures"]),
        "failures": failures,
        "input_digest": digest,
    }
    if args.trace:
        report["spans"] = tracer.spans
        report["layers"] = layer_metrics(tracer.spans, results)
    if args.records:
        report["records"] = {r["task"]: r["record"] for r in results}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
