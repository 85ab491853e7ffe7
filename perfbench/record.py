"""Record the benchmark's stored oracles and goldens.

    python3 perfbench/record.py

Writes perfbench/oracles.json (dense-SVD 2->2 norms of the pieces that have
no closed form) and perfbench/goldens.json (every task's headline values
and digests, per workload and seed, from one untraced pass each in a fresh
interpreter).  Run it only at a commit whose outputs are the reference;
tasks that fail their oracle checks there are listed, and their records
are stored as they came out.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Headline values may drift by a summation reordering (about 1e-13 relative)
# but not by a changed decision; values below ATOL are rounding residue.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12
# The default seed and one held out.
SEEDS = (0, 1)


def record_oracles() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads as W
    from sparselab.pdo import PieceIndex, default_cutoffs, piece_operator

    svd = {}
    for kappa, name in W.NORM_PIECES:
        if W.NORM_SYMBOLS[name].unit_b:
            continue
        spec, a = W.norm_spec(kappa), W.NORM_SYMBOLS[name].make(1)
        for ell in W.PIECE_ELLS:
            op = piece_operator(a, default_cutoffs(), PieceIndex(W.PIECE_J, ell, W.PIECE_NU), spec)
            svd[W.svd_key(kappa, name, W.PIECE_J, ell)] = float(
                np.linalg.svd(op.matrix(), compute_uv=False)[0]
            )
    return {"svd": svd}


def main() -> int:
    (HERE / "oracles.json").write_text(json.dumps(record_oracles(), indent=1, sort_keys=True) + "\n")

    import run

    goldens = {"rtol": GOLDEN_RTOL, "atol": GOLDEN_ATOL, "seeds": {}}
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            rep = run.run_worker(workload, seed, traced=False, extra=["--records"])
            goldens["seeds"].setdefault(str(seed), {})[workload] = rep["records"]
            for f in rep["failures"]:
                if f["class"] != "golden":
                    print(f"seed {seed} {f['task']} [{f['class']}] {f['message'][:160]}")
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
