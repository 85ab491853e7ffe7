"""Quantitative probes: norms, decay fits, domination ratios, audits.

Every probe returns a small report object with plain-float fields (JSON
friendly via ``report_dict``).  Probes measure; assertions live in the test
suite.  Ratio probes drop denominators below 1e-14 rather than divide by
noise, and record how many cells were dropped or flagged.

Operator arguments accept either an operator handle (anything callable on a
GridFunction) or a precomputed image GridFunction, so identity and
multiplication oracles plug in next to the real constructions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .dyadic import CubePoset
from .maximal import maximal_p, sharp_maximal
from .pdo import (
    OperatorHandle,
    PieceIndex,
    _as_point,
    _nearest_cell,
    band_operator,
    default_cutoffs,
    kernel_slice,
    localized_operator,
    symbol_operator,
)
from .sample import ExponentPair, GridFunction, GridSpec, _lp_h, average_p, make_corpus
from .sparse import SparseCollection, verify_sparsity
from .symbol import SymbolClass, _norm

__all__ = [
    "DENOM_FLOOR",
    "ProbeReport",
    "NormEstimate",
    "NormFit",
    "SchurReport",
    "DominationReport",
    "SparseForm",
    "SparseFormReport",
    "SharpRatioReport",
    "DecayProbeConfig",
    "AuditReport",
    "form_threshold_order",
    "empirical_norm",
    "schur_bound",
    "predicted_band_slope",
    "norm_scaling_fit",
    "kernel_decay_fit",
    "kernel_difference_probe",
    "sparse_form",
    "sparse_form_ratio",
    "pointwise_domination_check",
    "sharp_ratio_probe",
    "composed_sharp_apply",
    "endpoint_audit",
    "report_dict",
]

DENOM_FLOOR = 1e-14


def report_dict(report) -> dict:
    """Dataclass report -> strict-JSON dict (floats, lists, strings only);
    non-finite floats become their ``repr`` strings."""

    def clean(v):
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        if isinstance(v, float) and not math.isfinite(v):
            return repr(v)  # JSON has no inf or nan
        if isinstance(v, Fraction):
            return float(v)
        if isinstance(v, np.ndarray):
            return [clean(t) for t in v.tolist()]
        if isinstance(v, dict):
            return {k: clean(t) for k, t in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(t) for t in v]
        return v

    return {k: clean(v) for k, v in asdict(report).items()}


@dataclass
class ProbeReport:
    """Uniform wrapper the runner serializes: one probe, one verdict."""

    name: str
    inputs: dict
    constants: dict
    slopes: dict
    passed: bool


def _image_of(T, f: GridFunction) -> GridFunction:
    """Accept an operator handle / callable or a ready-made image."""
    if isinstance(T, GridFunction):
        return T
    return T(f)


def form_threshold_order(n: int, rho: float, delta: float, pair: ExponentPair) -> float:
    """Critical symbol order below which the sparse-form bound is expected:
    ``-n(1-rho)(1/r - 1/s) - (n/s) max{0, delta-rho}``."""
    s_inv = 0.0 if math.isinf(pair.s) else 1.0 / pair.s
    return -n * (1.0 - rho) * (1.0 / pair.r - s_inv) - n * s_inv * max(0.0, delta - rho)


# ---------------------------------------------------------------------------
# operator norms


@dataclass
class NormEstimate:
    """An operator-norm estimate and what it certifies.

    ``kind`` is "exact" (a closed form), "iterated" (a converged 2 -> 2
    Lanczos estimate), "capped" (a 2 -> 2 estimate that reached the
    iteration cap first; still a lower bound) or "lower_bound".  For the
    2 -> 2 kinds, with ``theta = value**2``, some eigenvalue of ``M^H M``
    lies within ``residual * theta`` of ``theta``.
    """

    value: float
    kind: str
    r: float
    s: float
    iterations: int = 0
    residual: float = 0.0


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, OperatorHandle):
        return op.matrix()
    return np.asarray(op)


def _kernel_sup(A: np.ndarray, p: float, axis: int, hn: float) -> np.ndarray:
    """Grid L^p norm of each column (``axis=0``) or row (``axis=1``) of the
    kernel ``A = |M| / hn``; the largest is the mixed sup norm that the
    closed forms and the Schur test read."""
    if math.isinf(p):
        return np.max(A, axis=axis)
    return (np.sum(A**p, axis=axis) * hn) ** (1.0 / p)


# random corpus size of the lower-bound branch; Lanczos stopping rule
_TRIALS = 12
_TOL = 1e-8
_MAX_ITER = 400


def _lanczos_l2(M: np.ndarray, pair: ExponentPair, seed: int) -> NormEstimate:
    """2 -> 2 norm of ``M`` as the root of the top eigenvalue of ``M^H M``.

    Symmetric Lanczos from a random start, with full reorthogonalization.
    The top Ritz pair ``(theta, u)`` of the k x k tridiagonal has residual
    ``|beta_k u_k|``, and some eigenvalue of ``M^H M`` lies within it of
    ``theta``.  Once it is at most ``_TOL * theta`` the estimate reads
    "iterated"; reaching ``_MAX_ITER`` steps first reads "capped".  The
    tridiagonal is solved every eighth step, or when ``beta_k`` alone
    already meets the tolerance.
    """
    N = M.shape[1]
    steps = min(_MAX_ITER, N)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    V = np.empty((steps, N), dtype=np.complex128)  # orthonormal basis, one vector a row
    V[0] = v / np.linalg.norm(v)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    for k in range(steps):
        w = np.conj(np.conj(M @ V[k]) @ M)  # M^H M v without a copy of M^H
        Vk = V[: k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = np.conj(Vk @ np.conj(w))
            w -= Vk.T @ c
            alpha[k] += c[k].real
        beta[k] = np.linalg.norm(w)
        if k % 8 == 7 or k + 1 == steps or beta[k] <= _TOL * np.abs(alpha[: k + 1]).max():
            evals, evecs = np.linalg.eigh(np.diag(alpha[: k + 1]) + np.diag(beta[:k], -1))
            theta = max(float(evals[-1]), 0.0)
            res = float(beta[k] * abs(evecs[-1, -1]))
            if res <= _TOL * theta or k + 1 == steps:
                break
        V[k + 1] = w / beta[k]
    kind = "iterated" if res <= _TOL * theta else "capped"
    rel = res / theta if theta else 0.0
    return NormEstimate(math.sqrt(theta), kind, pair.r, pair.s, k + 1, rel)


def empirical_norm(op, pair: ExponentPair, spec: GridSpec, seed: int = 0) -> NormEstimate:
    """Operator norm between Lebesgue spaces on the grid.

    Exact closed forms where they exist (from L^1, or into L^inf), Lanczos
    on ``M^H M`` for the 2 -> 2 norm, and a corpus-plus-extremizer lower bound
    for every other pair (reported as such, never as the norm).
    """
    M = _as_matrix(op)
    r, s = pair.r, pair.s
    if r == 2 and s == 2:
        return _lanczos_l2(M, pair, seed)
    hn = float(spec.h) ** spec.n  # cell volume
    A = np.abs(M) / hn  # kernel modulus on the grid
    rp = pair.r_prime
    if math.isinf(s):  # rows in L^r'
        return NormEstimate(float(np.max(_kernel_sup(A, rp, 1, hn))), "exact", r, s)
    if r == 1:  # columns in L^s
        return NormEstimate(float(np.max(_kernel_sup(A, s, 0, hn))), "exact", r, s)

    # general pair: certified lower bound from test functions
    best = 0.0
    N = M.shape[1]
    cands = [f.values.ravel() for f in make_corpus(spec, seed=seed, count=_TRIALS)]
    j_star = int(np.argmax(_kernel_sup(A, 1.0, 0, hn)))
    delta = np.zeros(N, dtype=np.complex128)
    delta[j_star] = 1.0 / hn
    cands.append(delta)
    for i in np.argsort(-_kernel_sup(A, 1.0, 1, hn))[:4]:
        row = M[i] / hn
        # r-unit-ball extremizer of the single output at row i
        if np.max(np.abs(row)) > 0:
            cands.append(np.abs(row) ** (rp - 1.0) * np.exp(-1j * np.angle(row)))
    for v in cands:
        nf = _lp_h(v, r, hn)
        if nf < DENOM_FLOOR:
            continue
        best = max(best, _lp_h(M @ v, s, hn) / nf)
    return NormEstimate(best, "lower_bound", r, s)


@dataclass
class SchurReport:
    product_bound: float
    sum_variant: float
    p: float
    theta: float


def schur_bound(op, pair: ExponentPair, spec: GridSpec) -> SchurReport:
    """Kernel-test bound on the r -> s norm via row/column p-norms.

    With ``1 + 1/s = 1/p + 1/r`` the operator maps L^1 -> L^p with the
    column bound and L^p' -> L^inf with the row bound; interpolation at
    ``theta = p/r' = 1 - p/s`` gives the product ``col**(1-theta) *
    row**theta``.  The additive combination is recorded alongside for
    comparison; the product is the certified bound (it matches the rank-one
    and point-mass oracles exactly, the sum overshoots by a factor 2).
    """
    M = _as_matrix(op)
    hn = float(spec.h) ** spec.n  # cell volume
    A = np.abs(M) / hn
    p = pair.schur_p
    theta = 0.0 if math.isinf(pair.r_prime) else p / pair.r_prime
    col = float(np.max(_kernel_sup(A, p, 0, hn)))
    row = float(np.max(_kernel_sup(A, p, 1, hn)))
    product = col ** (1.0 - theta) * row**theta
    return SchurReport(
        product_bound=product,
        sum_variant=col ** (1.0 - theta) + row**theta,
        p=p,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# scaling fits


@dataclass
class NormFit:
    mode: str
    indices: list[int]
    values: list[float]  # the measured norms B_index
    slope: float
    residual: float  # max |log2 value - fitted line|
    total: float  # summability proxy: sum of the norms
    predicted_slope: float | None
    excess: float | None  # slope - predicted_slope when a prediction exists
    kinds: list[str] = field(default_factory=list)


def predicted_band_slope(mode: str, a: SymbolClass, pair: ExponentPair | None = None) -> float:
    """Expected growth exponent of band-piece norms in the band index:
    ``m + n max{0, (delta-rho)/s} + n(1/r - 1/s)`` on the mode's pair."""
    use = _mode_pair(mode, pair)
    s_inv = 0.0 if math.isinf(use.s) else 1.0 / use.s
    return a.m + a.n * max(0.0, (a.delta - a.rho) * s_inv) + a.n * (1.0 / use.r - s_inv)


def _fit_line(xs, ys) -> tuple[float, float]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    coef = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - np.polyval(coef, x)))) if len(x) > 2 else 0.0
    return float(coef[0]), resid


def _fit(
    mode: str,
    indices: list[int],
    values: list[float],
    predicted: float | None = None,
    kinds: list[str] | None = None,
) -> NormFit:
    """Line through log2 of the values against the indices, as a NormFit."""
    logs = [math.log2(max(v, 1e-300)) for v in values]
    slope, resid = _fit_line(indices, logs)
    excess = None if predicted is None else slope - predicted
    return NormFit(mode, indices, values, slope, resid, float(sum(values)), predicted, excess,
                   kinds or [])


def _mode_pair(mode: str, pair: ExponentPair | None) -> ExponentPair:
    if mode == "l1_linf":
        return ExponentPair(1.0, math.inf)
    if mode == "l2_l2":
        return ExponentPair(2.0, 2.0)
    if mode in ("lr_linf", "lr_ls"):
        if pair is None:
            raise ValueError(f"{mode} needs an exponent pair")
        return ExponentPair(pair.r, math.inf) if mode == "lr_linf" else pair
    raise ValueError(f"unknown mode {mode!r}")


def norm_scaling_fit(
    a: SymbolClass,
    spec: GridSpec,
    mode: str,
    js: list[int],
    pair: ExponentPair | None = None,
    seed: int = 0,
) -> NormFit:
    """Fit log2 of band-piece norms against the band index j."""
    fam = default_cutoffs()
    use = _mode_pair(mode, pair)
    pred = predicted_band_slope(mode, a, pair)
    ests = [empirical_norm(band_operator(a, fam, j, spec), use, spec, seed=seed) for j in js]
    return _fit(mode, list(js), [e.value for e in ests], pred, [e.kind for e in ests])


# shell sups at or below this are quadrature noise
_SHELL_FLOOR = 1e-13


def kernel_decay_fit(
    a: SymbolClass, spec: GridSpec, j: int, ells: list[int], nu: float
) -> NormFit:
    """Fit log2 of the windowed piece-kernel sup, at the origin, against the
    shell index.

    Shells live at distance ~ 2**(ell - j*nu) from the diagonal; repeated
    integration by parts trades each shell step for a fixed decay factor, so
    the fitted slope should be steeply negative.  Shell values at or below
    ``1e-13`` are dropped from the fit (already at quadrature noise).
    """
    if not nu < a.rho:
        raise ValueError("shell decay needs nu below the symbol's rho")
    fam = default_cutoffs()
    used, vals = [], []
    for ell in ells:
        v = float(np.max(np.abs(kernel_slice(a, fam, PieceIndex(j, ell, nu), 0.0, spec))))
        if v > _SHELL_FLOOR:
            used.append(ell)
            vals.append(v)
    if len(used) < 2:
        raise ValueError("not enough shells above the noise floor to fit")
    return _fit("kernel_decay", used, vals)


# annulus indices the difference probe tries, and the fewest cells an annulus needs
_ANNULI = range(9)
_MIN_ANNULUS_CELLS = 4


@dataclass
class DecayProbeConfig:
    """Annulus geometry and exponents for the kernel-variation probe.

    Annuli are ``2**j * tau**theta <= |y - x_b| <= 2**(j+1) * tau**theta``.
    """

    tau: float = 0.125
    theta: float = 0.5
    p: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")
        if not (1.0 <= self.p <= 2.0):
            raise ValueError("p must lie in [1, 2]")

    def resolved_h(self, a: SymbolClass, n: int) -> float:
        """Decay exponent h: the midpoint of ``m + n/p < h*rho < m + n/p + 1``."""
        lo = a.m + n / self.p
        hi = lo + 1.0
        return (lo + hi) / (2.0 * a.rho)


def kernel_difference_probe(
    a: SymbolClass,
    spec: GridSpec,
    x: float | tuple[float, ...],
    x_b: float | tuple[float, ...],
    config: DecayProbeConfig,
    window_ell1: int | None = None,
) -> NormFit:
    """Annular norms of the kernel variation between two nearby base points.

    Compares the kernels based at ``x`` and ``x_b`` at the same second
    argument y, integrates ``|difference|**p'`` over annuli around ``x_b``
    (dual exponent: the probe certifies the pairing side), and fits the
    log2 values against the annulus index.  Expected slope is ``-h``.  With
    ``window_ell1`` both kernels are localized by the spatial window first;
    annuli that leave the central half of the domain are skipped.  A scalar
    base point is that coordinate on every axis.
    """
    x, x_b = _as_point(x, spec), _as_point(x_b, spec)
    if math.dist(x, x_b) > config.tau:
        raise ValueError("base points further apart than tau")
    h_exp = config.resolved_h(a, spec.n)
    hstep = float(spec.h)
    N, c = spec.N, spec.centers()
    ia, ib = _nearest_cell(x, spec), _nearest_cell(x_b, spec)
    if window_ell1 is None:
        op = symbol_operator(a, spec)
    else:
        op = localized_operator(a, window_ell1, spec)
    diff = np.abs(op.row(ia) - op.row(ib))
    dist = _norm(tuple(t - c[i] for t, i in zip(spec.grid_coords(c), ib)))
    zmax = N * hstep / 4.0  # stay clear of the periodic wrap
    base = config.tau**config.theta
    pp = ExponentPair._dual(config.p)
    hn = hstep**spec.n
    used, vals = [], []
    for j in _ANNULI:
        lo = 2.0**j * base
        hi = 2.0 ** (j + 1) * base
        if hi > zmax:
            break
        mask = (dist >= lo) & (dist <= hi)
        if int(mask.sum()) < _MIN_ANNULUS_CELLS:
            continue
        v = _lp_h(diff[mask], pp, hn)
        if v > 1e-300:
            used.append(j)
            vals.append(v)
    if len(used) < 2:
        raise ValueError("not enough annuli inside the grid to fit")
    return _fit("kernel_difference", used, vals, -h_exp)


# ---------------------------------------------------------------------------
# sparse forms and domination


@dataclass
class SparseForm:
    value: float
    per_cube: list[float]


def sparse_form(
    coll: SparseCollection, f: GridFunction, g: GridFunction, pair: ExponentPair
) -> SparseForm:
    """Sum over the family of |region| <f>_r,region <g>_s',region."""
    per = []
    for i in range(len(coll.entries)):
        region = coll.region(i)
        vol = float(region.volume())
        per.append(vol * average_p(f, region, pair.r) * average_p(g, region, pair.s_prime))
    return SparseForm(float(sum(per)), per)


@dataclass
class SparseFormReport:
    pairing: float
    form: float
    ratio: float
    entry_count: int
    violation: bool  # form vanished while the pairing did not


def sparse_form_ratio(
    T,
    f: GridFunction,
    g: GridFunction,
    coll: SparseCollection,
    pair: ExponentPair,
) -> SparseFormReport:
    """Modulus pairing ``integral |Tf| |g|`` against the sparse form."""
    Tf = _image_of(T, f)
    spec = f.spec
    pairing = float(np.sum(np.abs(Tf.values) * np.abs(g.values)) * float(spec.h) ** spec.n)
    form = sparse_form(coll, f, g, pair).value
    if form > DENOM_FLOOR:
        ratio = pairing / form
    else:
        ratio = math.inf if pairing > DENOM_FLOOR else 0.0
    return SparseFormReport(pairing, form, ratio, len(coll.entries), math.isinf(ratio))


@dataclass
class DominationReport:
    constant: float  # max |Tf| / D over covered cells
    covered_fraction: float
    uncovered_count: int  # cells with |Tf| above floor but D == 0


def pointwise_domination_check(
    T,
    f: GridFunction,
    coll: SparseCollection,
    r: float,
) -> DominationReport:
    """Compare |Tf| against the sparse superposition of region averages.

    The dominating function puts ``<f>_r,region`` on each entry's core
    cube.  Cells where it vanishes but |Tf| does not (above the floor) are
    counted as uncovered; the constant is the max ratio elsewhere.
    """
    Tf = _image_of(T, f)
    spec = f.spec
    D = np.zeros(spec.shape)
    flat = D.reshape(-1)
    for i, e in enumerate(coll.entries):
        avg = average_p(f, coll.region(i), r)
        cells = spec.box_flat_cells(e.cube)
        np.add.at(flat, cells, avg)
    Ta = np.abs(Tf.values)
    covered = D > 0
    ratios = Ta[covered] / D[covered]
    return DominationReport(
        constant=float(np.max(ratios)) if ratios.size else 0.0,
        covered_fraction=float(np.mean(covered)),
        uncovered_count=int(np.count_nonzero((Ta > DENOM_FLOOR) & ~covered)),
    )


# ---------------------------------------------------------------------------
# composed sharp-maximal operator and its audits


def composed_sharp_apply(a: SymbolClass, ell1: int, ell2: float, f: GridFunction) -> np.ndarray:
    """Values of the capped oscillation maximal applied to the image of the
    operator localized at radius ``2**ell1``; the composition reaches
    ``2**ell1 + 2*ell2``."""
    return sharp_maximal(localized_operator(a, ell1, f.spec).apply(f), radius_cap=ell2)


@dataclass
class SharpRatioReport:
    max_ratio: float
    median_ratio: float
    active_cells: int
    flagged: int  # numerator above floor where the denominator is not


def sharp_ratio_probe(
    a: SymbolClass,
    fs: GridFunction | list[GridFunction],
    ell1: int,
    ell2: float,
    p: float,
    precomputed_max: list[np.ndarray] | None = None,
) -> SharpRatioReport:
    """Pointwise control of the composed operator by the p-maximal of f,
    maximized over a corpus of inputs.

    ``precomputed_max`` lets a sweep over localization scales reuse the
    maximal evaluations, which do not depend on the scales.
    """
    if isinstance(fs, GridFunction):
        fs = [fs]
    ratios_all = []
    flagged = 0
    active_total = 0
    for k, f in enumerate(fs):
        S = composed_sharp_apply(a, ell1, ell2, f)
        Mp = maximal_p(f, p) if precomputed_max is None else precomputed_max[k]
        active = S > DENOM_FLOOR
        flagged += int(np.count_nonzero(active & (Mp <= DENOM_FLOOR)))
        ok = active & (Mp > DENOM_FLOOR)
        active_total += int(np.count_nonzero(ok))
        if np.any(ok):
            ratios_all.append(S[ok] / Mp[ok])
    if ratios_all:
        cat = np.concatenate([rr.reshape(-1) for rr in ratios_all])
        mx, med = float(np.max(cat)), float(np.median(cat))
    else:
        mx = med = 0.0
    return SharpRatioReport(mx, med, active_total, flagged)


@dataclass
class AuditReport:
    base_lhs: float
    base_residual: float  # relative gap of the localization identity
    pairing: float  # global integral |Tf| |g|
    pairing_captured: float  # rank-0 share of the global pairing
    a1: float
    a2: float
    a3: float
    a4: float
    c0: float
    rank_lhs: list[float]
    rank_ok: list[bool]
    total_form: float
    final_constant: float  # base pairing / total form
    volume_ratios: list[float]  # per-rank total core volume shrinkage
    volume_bound: float
    sets_disjoint: bool
    measure_ok: bool
    poset_violations: list[str]
    ok: bool


def endpoint_audit(
    f: GridFunction,
    g: GridFunction,
    coll: SparseCollection,
    a: SymbolClass,
    ell1: int,
    ell2: float,
    pair: ExponentPair,
) -> AuditReport:
    """Rank-by-rank accounting of the localized pairing over a Whitney family.

    Checks, with everything measured on the grid:

    * structural soundness of the family (disjoint survivor sets carrying
      the configured volume fraction, inclusion order graded by rank);
    * the localization identity: the global pairing of the composed-operator
      image with |g| equals the sum over rank-0 cores of localized pairings
      (the composed reach fits inside one core side);
    * the four comparison constants the recursion uses, measured as maxima
      over the family: a1 bounds the image of the carved-out input on child
      cores, a2 the r-average of the localized image, a3 and a4 the g
      averages on survivor sets and child regions;
    * the per-rank inequality  LHS_rank <= C0 * FORM_rank + LHS_{rank+1}
      with C0 = 3**n * A2 * A3 + 3**(n/s') * A1 * A4;
    * geometric decay of total core volume across ranks;
    * the assembled bound: base pairing <= C0 * (sum of all rank forms).
    """
    if coll.flavor != "whitney":
        raise ValueError("the endpoint audit runs on Whitney-type families")
    spec = f.spec
    hn = float(spec.h) ** spec.n
    r = pair.r
    rp = pair.r_prime
    sp = pair.s_prime
    g_abs = np.abs(g.values)

    def T(u: GridFunction) -> np.ndarray:
        return composed_sharp_apply(a, ell1, ell2, u)

    def pair_with_g(tvals: np.ndarray, cells: np.ndarray) -> float:
        return float(np.sum(tvals.reshape(-1)[cells] * g_abs.reshape(-1)[cells]) * hn)

    # reach must fit into a core side, otherwise the identity is not exact
    reach = 2.0**ell1 + 2.0 * ell2
    sides = {float(coll.entries[i].cube.side) for i in coll.by_rank(0)}
    if sides and min(sides) < reach:
        raise ValueError("core side is below the composed operator reach")

    T_global = T(f)
    pairing = float(np.sum(np.abs(T_global) * g_abs) * hn)
    ranks = range(coll.max_rank() + 1)
    by_rank = {q: coll.by_rank(q) for q in ranks}

    regions = [coll.region(i) for i in range(len(coll))]

    # per-entry localized images and pairings
    loc_pair: dict[int, float] = {}
    loc_T: dict[int, np.ndarray] = {}
    for i, e in enumerate(coll.entries):
        Ti = T(f.restrict_box(regions[i]))
        loc_T[i] = Ti
        loc_pair[i] = pair_with_g(Ti, spec.box_flat_cells(e.cube))

    base_lhs = sum(
        pair_with_g(T_global, spec.box_flat_cells(coll.entries[i].cube))
        for i in by_rank[0]
    )
    base_rhs = sum(loc_pair[i] for i in by_rank[0])
    # mixed residual: relative for O(1) pairings, absolute when the pairing
    # itself vanishes (disjoint supports make the identity trivially exact)
    denom = max(abs(base_lhs), abs(base_rhs), 1.0)
    base_residual = abs(base_lhs - base_rhs) / denom

    # f and g averages over each entry's region, shared by the constants
    # and the rank forms
    avgs = [(average_p(f, tb, r), average_p(g, tb, sp)) for tb in regions]

    # measured comparison constants
    a1 = a2 = a3 = a4 = 0.0
    for i, e in enumerate(coll.entries):
        tb = regions[i]
        af, ag = avgs[i]
        if af > DENOM_FLOOR:
            a2 = max(a2, average_p(f.with_values(loc_T[i].astype(np.complex128)), tb, r) / af)
        if ag > DENOM_FLOOR and e.survivor.size:
            a3 = max(a3, average_p(g, e.survivor, rp) / ag)
        for jdx in coll.children_of(i):
            child = coll.entries[jdx]
            ctb = regions[jdx]
            if af > DENOM_FLOOR:
                carved = f.restrict_box(tb).values.copy()
                carved.reshape(-1)[spec.box_flat_cells(ctb)] = 0.0
                tv = T(f.with_values(carved)).astype(np.complex128)
                a1 = max(a1, average_p(f.with_values(tv), child.cube, pair.s) / af)
            if ag > DENOM_FLOOR:
                a4 = max(a4, average_p(g, ctb, sp) / ag)

    c0 = 3.0**spec.n * a2 * a3 + 3.0 ** (spec.n / sp) * a1 * a4

    rank_lhs, rank_forms = [], []
    for q in ranks:
        rank_lhs.append(sum(loc_pair[i] for i in by_rank[q]))
        form = 0.0
        for i in by_rank[q]:
            af, ag = avgs[i]
            form += float(coll.entries[i].cube.volume()) * af * ag
        rank_forms.append(form)
    rank_ok = []
    for q in ranks:
        nxt = rank_lhs[q + 1] if q + 1 < len(rank_lhs) else 0.0
        rhs = c0 * rank_forms[q] + nxt
        rank_ok.append(rhs - rank_lhs[q] >= -1e-9 * max(rhs, 1.0))

    total_form = float(sum(rank_forms))
    final_constant = base_lhs / total_form if total_form > DENOM_FLOOR else 0.0

    vols = [
        float(sum((coll.entries[i].cube.volume() for i in by_rank[q]), Fraction(0)))
        for q in ranks
    ]
    volume_ratios = [vols[q + 1] / vols[q] for q in range(len(vols) - 1) if vols[q] > 0]
    volume_bound = 1.0 - float(coll.eta) * 3.0**spec.n  # children eat at most 1 - eta of a core

    sparsity = verify_sparsity(coll)
    # the ordered family is the triples: the central third of a child triple
    # is the child cube itself, which lies inside the parent core
    poset = CubePoset(regions, [e.rank for e in coll.entries])
    violations = poset.check_graded()

    ok = (
        base_residual < 1e-9
        and all(rank_ok)
        and base_lhs <= c0 * total_form + 1e-9 * max(c0 * total_form, 1.0)
        and all(vr <= volume_bound + 1e-12 for vr in volume_ratios)
        and sparsity.disjoint
        and sparsity.ok
        and not violations
    )
    return AuditReport(
        base_lhs=base_lhs,
        base_residual=base_residual,
        pairing=pairing,
        pairing_captured=base_lhs / pairing if pairing > DENOM_FLOOR else 1.0,
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        c0=c0,
        rank_lhs=rank_lhs,
        rank_ok=rank_ok,
        total_form=total_form,
        final_constant=final_constant,
        volume_ratios=volume_ratios,
        volume_bound=volume_bound,
        sets_disjoint=sparsity.disjoint,
        measure_ok=sparsity.ok,
        poset_violations=violations,
        ok=ok,
    )
