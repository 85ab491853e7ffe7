"""Quantitative probes: norms, decay fits, domination ratios, audits.

Every probe returns a small report object with plain-float fields (JSON
friendly via ``report_dict``).  Probes measure; assertions live in the test
suite.  Ratio probes drop denominators below 1e-14 rather than divide by
noise, and record how many cells were dropped or flagged.

The norm probes read an :class:`OperatorHandle`.  The sparse-form and
domination probes accept either an operator (anything callable on a
GridFunction) or a precomputed image GridFunction, so identity and
multiplication oracles plug in next to the real constructions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .dyadic import Box, CubePoset, DyadicCube
from .maximal import _sharp_at, maximal_p, sharp_maximal
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
from .sparse import (
    SparseCollection,
    _ranges_of_cubes,
    _flat_cells,
    _region_averages,
    verify_sparsity,
)
from .symbol import SymbolClass, _norm

__all__ = [
    "DENOM_FLOOR",
    "ProbeReport",
    "NormEstimate",
    "NormFit",
    "SchurReport",
    "DominationReport",
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
    """Accept an operator handle / callable or a ready-made image.  The
    image branch has callers: the perfbench ``stopping`` workload applies
    the operator once per input and passes the image to both
    ``sparse_form_ratio`` and ``pointwise_domination_check``."""
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

    ``kind`` is "exact" (a closed form: the largest kernel row norm into
    L^inf, the largest column norm from L^1), "iterated" (a converged
    2 -> 2 Lanczos estimate), "capped" (a 2 -> 2 estimate that reached the
    iteration cap first; still a lower bound) or "lower_bound" (the best
    ratio over a set of test functions).  For the 2 -> 2 kinds ``theta =
    value**2`` is the top Ritz value of the Lanczos tridiagonal after
    ``iterations`` steps (within one ulp of that tridiagonal's exact top
    eigenvalue), and some eigenvalue of ``M^H M`` lies within ``residual *
    theta`` of ``theta``.
    """

    value: float
    kind: str
    r: float
    s: float
    iterations: int = 0
    residual: float = 0.0


# random corpus size of the lower-bound branch; Lanczos stopping rule
_TRIALS = 12
_TOL = 1e-8
_MAX_ITER = 400
_EPS = 2.0**-52  # double-precision epsilon


def _pivot_moments(a: list[float], b: list[float], sigma: float) -> tuple[float, float] | None:
    """Laguerre data of ``chi(sigma) = det(sigma I - T)`` for the symmetric
    tridiagonal ``T`` with diagonal ``a`` and squared off-diagonal ``b``
    (``b[i] = beta_(i-1)**2``, ``b[0] = 0``): ``(G, H)`` with ``G =
    chi'/chi`` and ``H = G**2 - chi''/chi``, or None once a pivot is not
    positive.

    The pivots of ``sigma I - T = L D L^T`` are ``p_i = sigma - a_i - b_i /
    p_(i-1)`` and ``chi = prod p_i``, so ``G`` and ``H`` sum ``r_i =
    p_i'/p_i`` and ``r_i**2 - p_i''/p_i`` along the same recurrence.  By
    Sylvester's law of inertia the pivots are all positive exactly when
    sigma lies above T's top eigenvalue."""
    G = H = r = s = 0.0
    p = 1.0
    for ai, bi in zip(a, b):
        q = bi / p
        p = sigma - ai - q
        if not p > 0.0:
            return None
        dp = 1.0 + q * r  # p_i' = 1 + b_i p_(i-1)' / p_(i-1)**2
        ddp = q * (s - 2.0 * r * r)  # and its derivative
        r, s = dp / p, ddp / p
        G += r
        H += r * r - s
    return G, H


def _last_entry(a: list[float], bt: list[float], b: list[float], sigma: float) -> float:
    """``|u_k|``, the last entry of the unit top eigenvector of the
    tridiagonal of :func:`_pivot_moments` (``bt[i] = |beta_(i-1)|``, ``b =
    bt**2``), from one solve with the twisted factorization of ``sigma I -
    T`` at a sigma above its top eigenvalue (Dhillon and Parlett, 2004).

    The pivots from the top (``p``, the same arithmetic as
    ``_pivot_moments``) and from the bottom (``q``) give the diagonal of
    ``(sigma I - T)^-1`` as ``1 / gamma_r`` with ``gamma_r = p_r - b_(r+1)
    / q_(r+1)``; at the twist ``r`` with the least ``gamma_r``, ``x_r = 1``
    and the ratios ``x_i / x_(i+1) = bt_(i+1) / p_i`` above it and
    ``x_(i+1) / x_i = bt_(i+1) / q_(i+1)`` below it are products of
    positive numbers, so a tiny ``u_k`` comes out with a small relative
    error.  A trailing pivot that rounding leaves non-positive (a trailing
    block whose top eigenvalue ties with sigma) counts as ``EPS**2``."""
    k, tiny = len(a), _EPS * _EPS
    p, q = [0.0] * k, [0.0] * k
    prev = 1.0
    for i in range(k):
        prev = p[i] = sigma - a[i] - b[i] / prev
    nxt, bn = 1.0, 0.0
    for i in range(k - 1, -1, -1):
        nxt = sigma - a[i] - bn / nxt
        nxt = q[i] = nxt if nxt > 0.0 else tiny
        bn = b[i]
    gamma = [p[i] - b[i + 1] / q[i + 1] for i in range(k - 1)] + [p[-1]]
    r = min(range(k), key=lambda i: abs(gamma[i]))
    xs, x = [1.0], 1.0
    for i in range(r - 1, -1, -1):
        x *= bt[i + 1] / p[i]
        xs.append(x)
    x = 1.0
    for i in range(r, k - 1):
        x *= bt[i + 1] / q[i + 1]
        xs.append(x)
    return x / math.hypot(*xs)


def _top_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """Top eigenvalue ``theta`` of the symmetric tridiagonal with diagonal
    ``alpha`` (k entries) and off-diagonal ``beta`` (k - 1), and ``|u_k|``,
    the last entry of its unit eigenvector, in O(k) memory and
    O(k) work per iteration; no k x k array is formed.

    The entries are scaled by a power of two (exactly) so the largest lies
    in [1/2, 1), and ``|beta|`` stands for ``beta``: a diagonal sign change
    moves neither ``theta`` nor ``|u_k|``.  ``theta`` is kept in a bracket
    ``lo <= theta < hi``: ``hi`` starts above the Gershgorin bound and
    ``lo`` at the largest diagonal entry, and a point is above ``theta``
    exactly when its pivots are all positive (:func:`_pivot_moments`).
    Laguerre steps on ``det(sigma I - T)`` from ``hi``, which in exact
    arithmetic stay above ``theta`` and converge to it, cubically for a
    simple top eigenvalue, propose each next point; one that rounding puts
    at or below ``lo`` becomes a search up from ``lo``, by a doubling
    stride capped at the bracket's midpoint, and one under half an ulp
    below ``hi`` the float below ``hi``.  The bracket closes when ``lo``
    and ``hi`` are adjacent floats (or closer than ``EPS**2`` near 0), and
    ``theta`` is the last Laguerre estimate from ``hi`` rounded into it.
    ``|u_k|`` comes from :func:`_last_entry` at ``hi``.  For k = 1 the
    result is ``(alpha_0, 1)`` exactly."""
    k = len(alpha)
    if k == 1:
        return float(alpha[0]), 1.0
    big = max(float(np.max(np.abs(alpha))), float(np.max(np.abs(beta))))
    if not math.isfinite(big):  # no bracket would ever close
        raise ValueError("the tridiagonal has non-finite entries")
    e = math.frexp(big)[1]
    a = np.ldexp(alpha, -e).tolist()
    bt = [0.0] + np.ldexp(np.abs(beta), -e).tolist()
    b = [x * x for x in bt]
    lo = max(a)
    top = max(ai + bl + br for ai, bl, br in zip(a, bt, bt[1:] + [0.0]))
    hi, pad = top + _EPS, _EPS
    while (d := _pivot_moments(a, b, hi)) is None:  # the bound's own rounding
        pad *= 2.0
        hi = top + pad
    up = 1.0  # the search stride up from lo, in ulps of lo

    def laguerre(G: float, H: float) -> float:
        return k / (G + math.sqrt(max((k - 1) * (k * H - G * G), 0.0)))

    while hi - lo > max(math.ulp(lo), math.ulp(hi), _EPS * _EPS):
        c = hi - laguerre(*d)
        if not c < hi:
            c = math.nextafter(hi, -math.inf)
        if not c > lo:
            c = min(lo + up * max(math.ulp(lo), _EPS * _EPS), 0.5 * (lo + hi))
            up *= 2.0
        dc = _pivot_moments(a, b, c)
        if dc is None:
            lo = c
        else:
            hi, d = c, dc
    theta = min(max(hi - laguerre(*d), lo), hi)
    return math.ldexp(theta, e), _last_entry(a, bt, b, hi)


def _lanczos_l2(gram, real: bool, N: int, pair: ExponentPair, seed: int) -> NormEstimate:
    """2 -> 2 norm of ``M`` as the root of the top eigenvalue of ``M^H M``,
    given the map ``gram: v -> M^H M v`` on vectors of length ``N`` (in any
    unitary basis) and whether it is real.

    Symmetric Lanczos from a random start, with full reorthogonalization.
    A real map runs in a real basis from a real start, the first ``N``
    draws of the generator (the real part of the complex start); a complex
    map starts from ``N`` more draws as the imaginary part.  The top Ritz
    pair ``(theta, u)`` of the k x k tridiagonal has residual
    ``|beta_k u_k|``, and some eigenvalue of ``M^H M`` lies within it of
    ``theta``.  Once it is at most ``_TOL * theta`` the estimate reads
    "iterated"; reaching ``_MAX_ITER`` steps first reads "capped".  The
    tridiagonal is solved every eighth step, or when ``beta_k`` alone
    already meets the tolerance, by :func:`_top_ritz`: O(k) work per
    Laguerre step and no k x k array, so the memory of a run is the basis
    ``V`` and O(N + k) more.
    """
    steps = min(_MAX_ITER, N)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N)
    if not real:
        v = v + 1j * rng.standard_normal(N)
    V = np.empty((steps, N), dtype=v.dtype)  # orthonormal basis, one vector a row
    V[0] = v / np.linalg.norm(v)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    for k in range(steps):
        w = gram(V[k])
        Vk = V[: k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = Vk @ w if real else np.conj(Vk @ np.conj(w))
            w -= Vk.T @ c
            alpha[k] += c[k].real
        beta[k] = np.linalg.norm(w)
        if k % 8 == 7 or k + 1 == steps or beta[k] <= _TOL * np.abs(alpha[: k + 1]).max():
            theta, u_k = _top_ritz(alpha[: k + 1], beta[:k])
            theta = max(theta, 0.0)
            res = float(beta[k] * u_k)
            if res <= _TOL * theta or k + 1 == steps:
                break
        V[k + 1] = w / beta[k]
    kind = "iterated" if res <= _TOL * theta else "capped"
    rel = res / theta if theta else 0.0
    return NormEstimate(math.sqrt(theta), kind, pair.r, pair.s, k + 1, rel)


def empirical_norm(op: OperatorHandle, pair: ExponentPair, spec: GridSpec,
                   seed: int = 0) -> NormEstimate:
    """Operator norm between Lebesgue spaces on the grid, of an
    :class:`OperatorHandle` with matrix ``M`` (``(T f)_i = sum_j M[i, j]
    f_j`` over the flat cells).

    Exact closed forms where they exist: into L^inf the largest kernel row
    norm in L^r', from L^1 the largest column norm in L^s.  Lanczos on
    ``M^H M`` for the 2 -> 2 norm, in real arithmetic whenever the handle's
    Gram map is real.  For every other pair a lower bound from a corpus, a
    point mass on the heaviest column and the extremizers of the heaviest
    rows, reported as such, never as the norm.  A handle supplies the Gram
    map and the kernel norms (``OperatorHandle.gram``,
    ``OperatorHandle.kernel_norms``): for multiplier and separable symbols
    from one kernel row and the x-factor, the Gram map of a circulant
    ``M^H M`` as its spectrum; for general ones the Gram map from
    ``matrix()`` (real for a real kernel), the norms from the kernel rows a
    block at a time.  Only the side of the kernel a closed form reads is
    computed.
    """
    return _norm_estimate(op, pair, spec, seed, lambda: _trial_values(spec, seed))


def _trial_values(spec: GridSpec, seed: int) -> list[np.ndarray]:
    """The corpus values the lower-bound branch tries."""
    return [f.values for f in make_corpus(spec, seed=seed, count=_TRIALS)]


def _norm_estimate(
    op: OperatorHandle, pair: ExponentPair, spec: GridSpec, seed: int, trials
) -> NormEstimate:
    """``empirical_norm``, with the corpus values of the lower-bound branch
    from ``trials()``, which only that branch calls."""
    r, s = pair.r, pair.s
    if r == 2 and s == 2:
        return _lanczos_l2(*op.gram(), spec.N**spec.n, pair, seed)
    hn = float(spec.h) ** spec.n  # cell volume
    rp = pair.r_prime
    if math.isinf(s):  # rows in L^r'
        rows, _ = op.kernel_norms(rp, cols=False)
        return NormEstimate(float(np.max(rows)), "exact", r, s)
    if r == 1:  # columns in L^s
        _, cols = op.kernel_norms(s, rows=False)
        return NormEstimate(float(np.max(cols)), "exact", r, s)

    # general pair: certified lower bound from test functions
    best = 0.0
    cands = list(trials())
    rows, cols = op.kernel_norms(1.0)
    delta = np.zeros(spec.shape, dtype=np.complex128)
    delta[np.unravel_index(int(np.argmax(cols)), spec.shape)] = 1.0 / hn
    cands.append(delta)
    for i in np.argsort(-rows, kind="stable")[:4]:
        row = op.row(np.unravel_index(i, spec.shape))
        # r-unit-ball extremizer of the single output at row i
        if np.max(np.abs(row)) > 0:
            cands.append(np.abs(row) ** (rp - 1.0) * np.exp(-1j * np.angle(row)))
    for v in cands:
        nf = _lp_h(v, r, hn)
        if nf < DENOM_FLOOR:
            continue
        best = max(best, _lp_h(op.apply(GridFunction(spec, v)).values, s, hn) / nf)
    return NormEstimate(best, "lower_bound", r, s)


@dataclass
class SchurReport:
    product_bound: float
    sum_variant: float


def schur_bound(op: OperatorHandle, pair: ExponentPair, spec: GridSpec) -> SchurReport:
    """Kernel-test bound on the r -> s norm via row/column p-norms.

    With ``1 + 1/s = 1/p + 1/r`` the operator maps L^1 -> L^p with the
    column bound and L^p' -> L^inf with the row bound; interpolation at
    ``theta = p/r' = 1 - p/s`` gives the product ``col**(1-theta) *
    row**theta``.  The additive combination is recorded alongside for
    comparison; the product is the certified bound (it matches the rank-one
    and point-mass oracles exactly, the sum overshoots by a factor 2).
    """
    p = pair.schur_p
    theta = 0.0 if math.isinf(pair.r_prime) else p / pair.r_prime
    rows, cols = op.kernel_norms(p)
    col, row = float(np.max(cols)), float(np.max(rows))
    product = col ** (1.0 - theta) * row**theta
    return SchurReport(product, col ** (1.0 - theta) + row**theta)


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
    """Fit log2 of band-piece norms against the band index j.  A lower-bound
    mode builds its trial corpus once, for every band."""
    fam = default_cutoffs()
    use = _mode_pair(mode, pair)
    pred = predicted_band_slope(mode, a, pair)
    trials = functools.cache(lambda: _trial_values(spec, seed))
    ests = [_norm_estimate(band_operator(a, fam, j, spec), use, spec, seed, trials) for j in js]
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


def sparse_form(
    coll: SparseCollection, f: GridFunction, g: GridFunction, pair: ExponentPair
) -> float:
    """Sum over the family of |region| <f>_r,region <g>_s',region.

    Every region average is :func:`average_p`'s bit for bit, read for all
    entries in one call (``sparse._region_averages``), and the terms are
    added in entry order."""
    vol, (af, ag) = _region_averages(coll, [(f, pair.r), (g, pair.s_prime)])
    return float(sum((vol * af * ag).tolist()))


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
    form = sparse_form(coll, f, g, pair)
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
    counted as uncovered; the constant is the max ratio elsewhere.  The
    region averages are :func:`average_p`'s bit for bit, read for all
    entries in one call (``sparse._region_averages``), and one
    ``np.add.at`` over every entry's cells, in entry order, gives each cell
    the sum the per-entry loop adds up.
    """
    Tf = _image_of(T, f)
    spec = f.spec
    D = np.zeros(spec.shape)
    _, (avg,) = _region_averages(coll, [(f, r)])
    cells, counts = _flat_cells(spec, *_ranges_of_cubes(spec, [e.cube for e in coll.entries]))
    # ufunc.at adds in index order, so every cell sums its entries in order
    np.add.at(D.reshape(-1), cells, np.repeat(avg, counts))
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
    maximal evaluations, which do not depend on the scales.  The sharp
    image skips the windows that cannot lift a value above ``DENOM_FLOOR``
    (``maximal._ladder``): every value above it has the whole grid's bits,
    and every other one stays at or under it, where the report reads no
    value, so the report is the full grid's.
    """
    if isinstance(fs, GridFunction):
        fs = [fs]
    op = localized_operator(a, ell1, fs[0].spec) if fs else None
    ratios_all = []
    flagged = 0
    active_total = 0
    for k, f in enumerate(fs):
        S = _sharp_at(op.apply(f), ell2, f.spec.cell_ranges(f.spec.domain()), DENOM_FLOOR)
        Mp = maximal_p(f, p) if precomputed_max is None else precomputed_max[k]
        active = S > DENOM_FLOOR
        flagged += int(np.count_nonzero(active & (Mp <= DENOM_FLOOR)))
        ok = active & (Mp > DENOM_FLOOR)
        active_total += int(np.count_nonzero(ok))
        if np.any(ok):
            ratios_all.append(S[ok] / Mp[ok])
    if ratios_all:
        cat = np.concatenate([rr.reshape(-1) for rr in ratios_all])
        mx, med = float(np.max(cat)), _median(cat)
    else:
        mx = med = 0.0
    return SharpRatioReport(mx, med, active_total, flagged)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a nonempty 1D array with its bits (the middle value,
    or ``(a + b) / 2`` of the middle two), by ``np.partition``; the first
    ``np.median`` call imports ``numpy.ma``."""
    k = x.size // 2
    if x.size % 2:
        return float(np.partition(x, k)[k])
    part = np.partition(x, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2)


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

    def pair_with_g(tvals: np.ndarray, cells: np.ndarray) -> float:
        return float(np.sum(tvals.reshape(-1)[cells] * g_abs.reshape(-1)[cells]) * hn)

    # reach must fit into a core side, otherwise the identity is not exact;
    # the smallest side is 2**-k at the largest level k, and a radius
    # 2**ell1 above it is decided in integers, before 2.0**ell1 can overflow
    children, by_rank = coll.tree()
    cores = by_rank[0] if by_rank else []  # vanishing data gives an empty family
    if cores:
        k = max(coll.entries[i].cube.k for i in cores)
        if ell1 > -k or 2.0**-k < 2.0**ell1 + 2.0 * ell2:
            raise ValueError("core side is below the composed operator reach")
    op = localized_operator(a, ell1, spec)

    def T(u: GridFunction, region: Box | DyadicCube | None = None) -> np.ndarray:
        return sharp_maximal(op.apply(u), ell2, region)

    # the composed image is read where g is nonzero (the pairing) and on the
    # rank-0 cores (base_lhs): it is computed on the bounding box of those
    # cells and is 0 outside it, where g is 0, so the pairing sums the whole
    # grid's terms in the whole grid's order.  Like every image below
    # (``sharp_maximal`` with a region), it has the whole grid's bits, so
    # both sides of the localization identity read one convention
    need = g_abs > 0
    for i in cores:
        need[spec.cell_slices(coll.entries[i].cube)] = True
    box = []
    for axis in range(spec.n):
        hit = np.flatnonzero(need.any(axis=tuple(b for b in range(spec.n) if b != axis)))
        box.append((int(hit[0]), int(hit[-1]) + 1) if hit.size else (0, 0))
    read = tuple(slice(i0, i1) for i0, i1 in box)
    T_global = np.zeros(spec.shape)
    T_global[read] = _sharp_at(op.apply(f), ell2, box)[read]
    pairing = float(np.sum(np.abs(T_global) * g_abs) * hn)
    ranks = range(len(by_rank))

    regions = [coll.region(i) for i in range(len(coll))]

    # per-entry localized images, read on the entry's region (which holds
    # its cube), and pairings
    loc_T = [T(f.restrict_box(tb), tb) for tb in regions]
    loc_pair = [pair_with_g(Ti, spec.box_flat_cells(e.cube)) for Ti, e in zip(loc_T, coll.entries)]

    rank_lhs = [sum(loc_pair[i] for i in by_rank[q]) for q in ranks]
    base_lhs = float(
        sum(pair_with_g(T_global, spec.box_flat_cells(coll.entries[i].cube)) for i in cores)
    )
    base_rhs = rank_lhs[0] if cores else 0.0
    # mixed residual: relative for O(1) pairings, absolute when the pairing
    # itself vanishes (disjoint supports make the identity trivially exact)
    denom = max(abs(base_lhs), abs(base_rhs), 1.0)
    base_residual = abs(base_lhs - base_rhs) / denom

    # f and g averages over each entry's region, shared by the constants
    # and the rank forms
    vol, avgs = _region_averages(coll, [(f, r), (g, sp)])
    avg_f, avg_g = avgs.tolist()

    # measured comparison constants
    a1 = a2 = a3 = a4 = 0.0
    for i, e in enumerate(coll.entries):
        tb = regions[i]
        af, ag = avg_f[i], avg_g[i]
        if af > DENOM_FLOOR:
            a2 = max(a2, average_p(f.with_values(loc_T[i]), tb, r) / af)
        if ag > DENOM_FLOOR and e.survivor.size:
            a3 = max(a3, average_p(g, e.survivor, rp) / ag)
        for jdx in children[i]:
            child = coll.entries[jdx]
            if af > DENOM_FLOOR:
                carved = f.restrict_box(tb).values.copy()
                carved.reshape(-1)[spec.box_flat_cells(regions[jdx])] = 0.0
                tv = T(f.with_values(carved), child.cube)
                a1 = max(a1, average_p(f.with_values(tv), child.cube, pair.s) / af)
            if ag > DENOM_FLOOR:
                a4 = max(a4, avg_g[jdx] / ag)

    c0 = 3.0**spec.n * a2 * a3 + 3.0 ** (spec.n / sp) * a1 * a4

    # cube volume times the averages over the tripled region (vol / 3**n is
    # the cube's volume, exact)
    terms = (vol / 3.0**spec.n * avgs[0] * avgs[1]).tolist()
    rank_forms = [sum(terms[i] for i in by_rank[q]) for q in ranks]
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
