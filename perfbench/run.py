"""sparselab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sparselab checkout.  Each pass (set-up plus one run
of the workload's fixed task list, then its checks) runs in a fresh
interpreter (perfbench/worker.py), one at a time, until ``--seconds`` are
used; at least three passes run with ``--trace 0``, and with ``--trace 1``
traced and untraced passes alternate, at least two of each.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end medians over passes (wall_s, setup_s, peak_rss_mb, pass_ratio);
with ``--trace 1`` they are the per-layer medians over the traced passes
plus ``trace.overhead_s``.  A run record (environment, every pass and, when
traced, every span) goes to .bench_out/ in the checkout.

``correct`` is false when any task fails for a reason other than the known
2->2 power-iteration inaccuracy (class ``norm_accuracy``: off by at most
1e-3 relative); those failures
still count in ``failed`` and lower ``pass_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stopping", "norms", "maximal_audit", "lab_suites")
KNOWN_DEFECT = "norm_accuracy"
# A pass takes about 5 s.  No pass starts once one more would end after
# RUN_CAP, so even a pass that hits its timeout ends the run within 180 s.
PASS_TIMEOUT = 60
RUN_CAP = 60
# One BLAS thread per pass: passes run one at a time on a two-core budget.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        head = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sparselab").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": head,
        "source_sha256": src.hexdigest(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": BLAS_THREADS,
        "loadavg": list(os.getloadavg()),
    }


def run_worker(workload: str, seed: int, traced: bool, extra: list[str] = ()) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({k: str(BLAS_THREADS) for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), *extra]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["process_s"] = time.perf_counter() - t0
    return report


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    modes = [False, True] if trace else [False]
    need = 2 if trace else 3
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = modes[len(passes) % len(modes)]
        passes.append(run_worker(workload, seed, traced))
        elapsed = time.perf_counter() - start
        est = statistics.median(p["process_s"] for p in passes)
        counts = [sum(p["traced"] == m for p in passes) for m in modes]
        if min(counts) >= 1 and (
            elapsed + est > RUN_CAP or (min(counts) >= need and elapsed + est > seconds)
        ):
            return passes


def end_to_end(passes: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    return {
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "setup_s": {"value": med("setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
        out[name] = {"value": statistics.median(p["layers"][name] for p in traced), "unit": unit}
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sparselab" / "__init__.py").is_file():
        print(f"perfbench: no sparselab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print(json.dumps({"environment": env}))
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    digests = {p["input_digest"] for p in passes}
    if len(digests) != 1:
        print("perfbench: passes generated different inputs for one seed", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = all(f["class"] == KNOWN_DEFECT for f in failures)
    metrics = per_layer(passes) if args.trace else end_to_end(passes)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "args": vars(args), "passes": passes}))

    seen = set()
    for f in failures:
        key = (f["task"], f["class"], f["message"])
        if key not in seen:
            seen.add(key)
            print(f"failed: {f['task']} [{f['class']}] {f['message'][:200]}")
    print(f"passes: {len(passes)}, fail_ratio: {failed / attempted:.4f}, record: {record}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
