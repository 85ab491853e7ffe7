"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For every seed recorded in perfbench/goldens.json:

1. The input generator is deterministic: setting a workload up twice with
   the seed gives identical inputs, and the next seed gives other inputs.
2. A perturbed golden or oracle fails exactly the task it belongs to: one
   pass of each workload is checked against the recorded goldens of the
   seed, then again with one golden value, one golden digest or one stored
   SVD value nudged.  The failing set must grow by that task alone.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


def failing(results: list[dict]) -> set[str]:
    return {r["task"] for r in results if r["failures"]}


def nudge(value):
    if isinstance(value, list):
        return [nudge(value[0])] + value[1:]
    if isinstance(value, int):
        return value + 1
    return value * (1.0 + 1e-3) + 1e-9


def check_determinism(seed: int) -> list[str]:
    problems = []
    for name, (setup, _tasks) in W.WORKLOADS.items():
        digests = []
        for s in (seed, seed, seed + 1):
            ctx = setup(s, Tracer(False))
            digests.append(W.input_digest(name, ctx))
            W.cleanup(ctx)
        if not digests[0] == digests[1] != digests[2]:
            problems.append(f"{name}: inputs are not a function of the seed")
    return problems


def check_perturbations(seed: int) -> list[str]:
    goldens = worker.load_json(worker.GOLDENS)
    oracles = worker.load_json(worker.ORACLES)
    tols = worker.tolerances(goldens)
    problems = []
    for name in W.WORKLOADS:
        ctx, tasks, outputs, _, _ = worker.run_pass(name, seed, Tracer(False), time.perf_counter())
        try:
            golden = worker.goldens_for(goldens, name, seed)
            if not golden:
                problems.append(f"{name}: no goldens recorded for seed {seed}")
                continue
            base = failing(worker.check_pass(tasks, outputs, golden, tols, oracles))
            cases = []
            for kind in ("values", "digests"):
                ids = [t.id for t in tasks if t.id not in base and golden.get(t.id, {}).get(kind)]
                if not ids:
                    continue
                tid = ids[0]
                g2 = copy.deepcopy(golden)
                key = sorted(g2[tid][kind])[0]
                g2[tid][kind][key] = nudge(g2[tid][kind][key]) if kind == "values" else "0" * 64
                cases.append((f"golden {kind} {key}", tid, g2, oracles))
            for key in sorted(oracles.get("svd", {})):
                kappa, sym, j, ell = key.split("/")
                tid = f"{kappa}/{sym}/piece/{j}{ell}"
                if name == "norms" and tid not in base:
                    o2 = copy.deepcopy(oracles)
                    o2["svd"][key] = nudge(o2["svd"][key])
                    cases.append((f"oracle svd {key}", tid, golden, o2))
                    break
            for what, tid, g2, o2 in cases:
                got = failing(worker.check_pass(tasks, outputs, g2, tols, o2))
                ok = got == base | {tid}
                print(f"{'ok' if ok else 'FAIL'}: seed {seed}: {name}: {what} of {tid}")
                if not ok:
                    problems.append(
                        f"seed {seed}: {name}: {what} of {tid} failed {sorted(got - base)}"
                    )
            if not cases:
                problems.append(f"{name}: no passing task to perturb")
        finally:
            W.cleanup(ctx)
    return problems


def main() -> int:
    seeds = sorted(int(s) for s in worker.load_json(worker.GOLDENS)["seeds"])
    problems = []
    for seed in seeds:
        found = check_determinism(seed)
        print(f"{'ok' if not found else 'FAIL'}: seed {seed}: inputs deterministic")
        problems += found + check_perturbations(seed)
    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
