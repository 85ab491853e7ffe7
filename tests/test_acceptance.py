"""Whole-pipeline acceptance checks, one test per guaranteed behavior.

Each test pins its grids, parameters, and tolerances explicitly, so a
``pytest -v`` run of this file prints one pass/fail line per guarantee.
Rational geometry is checked exactly; wherever floating point enters, the
tolerance sits next to the assertion.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from sparselab.dyadic import (
    children,
    concentric_dilate,
    cube_box,
    whitney_decompose,
)
from sparselab.maximal import maximal_p
from sparselab.pdo import (
    PieceIndex,
    apply,
    band_operator,
    default_cutoffs,
    lp_piece_apply,
    spatial_piece_apply,
    symbol_operator,
)
from sparselab.sample import (
    ExponentPair,
    GridFunction,
    GridSpec,
    average_p,
    make_corpus,
)
from sparselab.sparse import (
    StoppingConfig,
    WhitneyConfig,
    build_stopping_time,
    build_whitney_sparse,
    verify_sparsity,
)
from sparselab.symbol import bessel, custom_symbol, multiplication, oscillatory_ct, rough_bump
from sparselab.verify import (
    DecayProbeConfig,
    empirical_norm,
    endpoint_audit,
    kernel_decay_fit,
    kernel_difference_probe,
    norm_scaling_fit,
    pointwise_domination_check,
    sharp_ratio_probe,
    sparse_form_ratio,
)

from oracles import (
    box_cell_count,
    cube_containing_point,
    default_truncation,
    dense_l2_norm,
    direct_quadrature,
    third_partition_residual,
)

INF = math.inf


def smooth_field(spec, width, center=0.0, freq=0.0, name=""):
    """Compactly supported C-infinity bump, optionally cosine-modulated.

    Sampling the same callable on two grids gives the cross-resolution
    checks a genuinely shared input, which corpus functions (drawn per
    grid) cannot provide.
    """

    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        t = (x - center) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        if freq:
            out = out * np.cos(freq * (x - center))
        return out

    return GridFunction.from_callable(spec, fn, name=name)


def _random_open_mask(rng, N):
    """Union of a few cell intervals; never the whole line, so every
    decomposition sees a nonempty complement."""
    mask = np.zeros(N, dtype=bool)
    for _ in range(int(rng.integers(2, 7))):
        w = int(rng.integers(3, N // 6))
        i0 = int(rng.integers(0, N - w))
        mask[i0 : i0 + w] = True
    return mask


def test_criterion_01_exact_cube_geometry():
    spec = GridSpec(1, 2, 9)
    rng = np.random.default_rng(2024)

    # Same-family cubes either nest or their boxes are disjoint; checked on
    # 300 random pairs with rational box arithmetic, no tolerance.
    for _ in range(300):
        omega = (int(rng.integers(0, 3)),)
        boxes = []
        for k in rng.integers(-2, 6, size=2):
            x = (2 * int(rng.integers(0, spec.N)) + 1) * spec.h / 2 - spec.halfwidth
            boxes.append(cube_box(cube_containing_point((x,), int(k), omega)))
        a, b = boxes
        nested = a.contains_box(b) or b.contains_box(a)
        assert nested or not a.intersects(b)

    # The three shifted families tile space at each scale: the partition
    # residual of a sampled function is exactly zero across a scale window.
    f = make_corpus(spec, seed=3, count=1)[0]
    for k in (0, 1, 2):
        assert third_partition_residual(f, k) == 0.0

    # Whitney cubes of 50 random open sets: exact disjoint cover, and the
    # concentric 3-dilate of every cube meets the complement.  Dilates about
    # a common center are nested, so any wider factor (4*sqrt(n) included)
    # inherits the contact property.
    domain = spec.domain()
    for trial in range(50):
        mask = _random_open_mask(rng, spec.N)
        cubes = whitney_decompose(mask, (trial % 3,), spec)
        covered = (
            np.concatenate([spec.box_flat_cells(cube_box(q)) for q in cubes])
            if cubes
            else np.empty(0, dtype=np.int64)
        )
        assert covered.size == np.unique(covered).size
        assert np.array_equal(np.sort(covered), np.flatnonzero(mask))
        for q in cubes:
            tq = concentric_dilate(q, 3)
            exits_domain = not domain.contains_box(tq)
            assert exits_domain or not mask[spec.box_flat_cells(tq)].all()


def test_criterion_02_cutoff_partitions_and_telescoping():
    spec = GridSpec(1, 2, 9)
    fam = default_cutoffs()

    # The truncated band family sums to one on every grid frequency (all of
    # which sit under the final low-pass plateau).
    J = default_truncation(spec)
    xi = np.abs(spec.freqs())
    assert float(xi.max()) <= 2.0 ** (J - 1)
    total = sum(fam.band(j, xi) for j in range(J + 1))
    assert float(np.max(np.abs(total - 1.0))) < 1e-12

    # Spatial shells of a band telescope back to a single wide plateau.
    r = np.linspace(0.0, float(spec.halfwidth), 2049)
    for j, nu in ((4, 0.5), (8, 0.4)):
        L = 8
        total = sum(fam.window(j, ell, nu, r) for ell in range(L + 1))
        target = fam.psi0(r * 2.0 ** (j * nu - L - 1.0))
        assert float(np.max(np.abs(total - target))) < 1e-12


def test_criterion_03_operator_application_oracles():
    spec = GridSpec(1, 2, 9)
    fam = default_cutoffs()
    base = smooth_field(spec, 1.4, center=-0.3, freq=9.0)
    imag = smooth_field(spec, 1.1, center=0.4, freq=4.0)
    f = base.with_values(base.values + 1j * imag.values)

    # Constant symbol acts as the identity.
    g = apply(bessel(0.0), f)
    assert float(np.max(np.abs(g.values - f.values))) < 1e-10

    # A frequency-independent symbol multiplies pointwise.
    phi = np.cos(spec.centers())
    g = apply(multiplication(lambda x: np.cos(x[0])), f)
    assert float(np.max(np.abs(g.values - phi * f.values))) < 1e-12

    # Direct quadrature and the transform path agree on a smooth symbol.
    a = bessel(-2.0)
    g_fft = apply(a, f)
    g_dir = direct_quadrature(a, f)
    assert float(np.max(np.abs(g_fft.values - g_dir.values))) < 1e-10

    # Band pieces resum to the full operator.
    a = bessel(-1.0)
    g = apply(a, f)
    total = sum(lp_piece_apply(a, fam, j, f).values for j in range(default_truncation(spec) + 1))
    assert float(np.max(np.abs(total - g.values))) < 1e-10

    # Spatial shells of one band resum to the band (the final window
    # plateau covers the whole torus at this depth).
    j, nu, L = 4, 0.5, 5
    band = lp_piece_apply(a, fam, j, f)
    total = sum(
        spatial_piece_apply(a, fam, PieceIndex(j, ell, nu), f).values for ell in range(L + 1)
    )
    assert float(np.max(np.abs(total - band.values))) < 1e-10


def _survivor_average_audit(spec, f, g, pair):
    """Exhaustively check the post-selection average bound on one family.

    Every in-grid subcube of an entry that is not carved out by a selected
    child must have its r-average (and dually the s'-average of g) within
    the jump factor of the entry's own average.
    """
    coll = build_stopping_time(f, g, StoppingConfig(pair=pair))
    factor = max(4.0, 2.0**spec.n)
    slack = 1e-12
    for i, e in enumerate(coll.entries):
        kid_boxes = [cube_box(c.cube) for c in coll.entries if c.parent == i]
        bound_f = factor ** (1.0 / pair.r) * average_p(f, e.cube, pair.r) + slack
        bound_g = factor ** (1.0 / pair.s_prime) * average_p(g, e.cube, pair.s_prime) + slack
        stack = [e.cube]
        while stack:
            q = stack.pop()
            if q.k == spec.kappa:
                continue
            for ch in children(q):
                box = cube_box(ch)
                if any(kb.contains_box(box) for kb in kid_boxes):
                    continue
                if box_cell_count(spec, box) == 0:
                    continue
                assert average_p(f, ch, pair.r) <= bound_f
                assert average_p(g, ch, pair.s_prime) <= bound_g
                stack.append(ch)


def test_criterion_04_guaranteed_sparsity():
    # Stopping-time families on ten corpus pairs keep at least half of each
    # region; the margin comes out of exact cell counts.
    spec_s = GridSpec(1, 2, 9)
    corpus = make_corpus(spec_s, seed=5, count=5)
    for f, g in itertools.combinations(corpus, 2):
        coll = build_stopping_time(f, g, StoppingConfig(pair=ExponentPair(2.0, 2.0)))
        rep = verify_sparsity(coll)
        assert rep.ok and rep.disjoint
        assert coll.eta == Fraction(1, 2)
        assert rep.min_margin >= 1.0

    # Whitney families on ten more pairs keep the configured fraction of
    # each tripled core.
    spec_w = GridSpec(1, 3, 8)
    corpus_w = make_corpus(spec_w, seed=7, count=5)
    for f, g in itertools.combinations(corpus_w, 2):
        coll = build_whitney_sparse(f, g, WhitneyConfig(pair=ExponentPair(2.0, INF)))
        rep = verify_sparsity(coll)
        assert rep.ok
        assert coll.eta == Fraction(1, 2) * Fraction(1, 3) ** spec_w.n
        assert rep.min_margin >= 1.0

    # Exhaustive survivor-average bound at N = 2**8 for two exponent pairs.
    spec_e = GridSpec(1, 2, 5)
    fe, ge = make_corpus(spec_e, seed=9, count=2)
    for pair in (ExponentPair(1.0, INF), ExponentPair(2.0, 2.0)):
        _survivor_average_audit(spec_e, fe, ge, pair)


def test_criterion_05_band_norm_slopes_and_dense_oracle():
    spec = GridSpec(1, 2, 7)
    js = list(range(2, 9))
    tol = 0.3
    for m in (-1.5, -1.0, -0.5):
        for rho in (0.5, 1.0):
            a = bessel(m, rho, 0.0)
            fit = norm_scaling_fit(a, spec, "l1_linf", js=js)
            assert fit.excess is not None and fit.excess <= tol
            for r in (2.0, 4.0 / 3.0):
                fit = norm_scaling_fit(a, spec, "lr_linf", pair=ExponentPair(r, INF), js=js)
                assert fit.excess <= tol
            for pr in (ExponentPair(2.0, 2.0), ExponentPair(4.0 / 3.0, 4.0)):
                fit = norm_scaling_fit(a, spec, "lr_ls", pair=pr, js=js)
                assert fit.excess <= tol

    # The iterated operator-norm estimate reproduces a dense SVD at N = 2**9,
    # for x-dependent operators and for band pieces of pure frequency
    # multipliers, whose tops are near-degenerate.
    spec_d = GridSpec(1, 2, 6)
    fam = default_cutoffs()
    ax = custom_symbol(
        lambda x, xi: np.cos(x[0]) / np.sqrt(1.0 + xi[0] ** 2), m=-1.0, rho=1.0, delta=1.0
    )
    osc = oscillatory_ct(0.5, -1.0)
    ops = [
        symbol_operator(rough_bump(-0.5, 0.5), spec_d),
        symbol_operator(ax, spec_d),
        band_operator(ax, fam, 2, spec_d),
        symbol_operator(osc, spec_d),
        band_operator(bessel(-1.0, 0.5), fam, 7, spec_d),
        *(band_operator(osc, fam, j, spec_d) for j in (4, 6, 8)),
    ]
    for op in ops:
        est = empirical_norm(op, ExponentPair(2.0, 2.0), spec_d)
        oracle = dense_l2_norm(op, spec_d)
        assert est.kind == "iterated"
        assert abs(est.value - oracle) <= 1e-6 * oracle


def test_criterion_06_kernel_decay_and_difference_slopes():
    spec = GridSpec(1, 2, 9)

    # Windowed piece kernels of smooth symbols fall off the diagonal faster
    # than any of the polynomial rates the norm fits use.
    for a in (bessel(-1.0), bessel(-0.5), oscillatory_ct(0.5, -1.0)):
        fit = kernel_decay_fit(a, spec, j=8, ells=list(range(0, 6)), nu=0.4)
        assert fit.slope <= -5.0

    # Kernel variation between nearby base points decays at the predicted
    # annular rate, with and without spatial localization.
    a = bessel(-0.5, 0.5, 0.5)
    cfg = DecayProbeConfig(tau=0.125, theta=0.5, p=2.0)
    pred = -cfg.resolved_h(a, spec.n)
    assert pred == -1.0
    for w in (None, 1):
        fit = kernel_difference_probe(a, spec, x=0.0, x_b=-0.125, config=cfg, window_ell1=w)
        assert fit.predicted_slope == pred
        assert fit.slope <= pred + 0.5


def test_criterion_07_pointwise_sparse_domination():
    # Order chosen a tenth below the domination threshold for each (rho, r).
    configs = [
        (bessel(-0.1, 1.0, 0.0), 1.0),
        (bessel(-0.1, 1.0, 0.0), 2.0),
        (rough_bump(-0.6, 0.5), 1.0),
        (rough_bump(-0.35, 0.5), 2.0),
    ]
    for a, r in configs:
        pair = ExponentPair(1.0, INF) if r == 1.0 else ExponentPair(r, r)
        consts = []
        for kappa in (9, 10):
            spec = GridSpec(1, 2, kappa)
            # Even input: both halves of every root carry mass, so the
            # dominating superposition covers the whole tail of |Tf|.
            f = smooth_field(spec, 1.5, freq=5.0)
            coll = build_stopping_time(f, f, StoppingConfig(pair=pair))
            rep = pointwise_domination_check(symbol_operator(a, spec), f, coll, r)
            assert rep.uncovered_count == 0
            assert math.isfinite(rep.constant) and rep.constant > 0.0
            consts.append(rep.constant)
        assert max(consts) <= 2.0 * min(consts)


def test_criterion_08_sparse_form_stability():
    # Order a tenth below the form threshold for each exponent pair.
    for pair, m in ((ExponentPair(2.0, 2.0), -0.1), (ExponentPair(4.0 / 3.0, 4.0), -0.35)):
        a = bessel(m, 0.5, 0.5)
        ratios = []
        for kappa in (9, 10):
            spec = GridSpec(1, 2, kappa)
            f = smooth_field(spec, 1.3, center=-0.4, freq=7.0)
            g = smooth_field(spec, 1.2, center=0.3, freq=3.0)
            coll = build_stopping_time(f, g, StoppingConfig(pair=pair))
            rep = sparse_form_ratio(symbol_operator(a, spec), f, g, coll, pair)
            assert not rep.violation
            assert math.isfinite(rep.ratio) and rep.ratio > 0.0
            ratios.append(rep.ratio)
        assert max(ratios) <= 2.0 * min(ratios)


def test_criterion_09_sharp_function_control():
    # Order at the sharp-maximal threshold for each (rho, delta, p).
    configs = [
        (-0.25, 0.5, 0.5, 2.0),
        (-1.0 / 3.0, 0.5, 0.5, 1.5),
        (0.0, 1.0, 0.0, 2.0),
    ]
    for m, rho, delta, p in configs:
        a = bessel(m, rho, delta)
        values = []
        for kappa in (5, 6):
            spec = GridSpec(1, 5, kappa)
            fs = [
                smooth_field(spec, 9.0, center=-2.0, freq=3.0),
                smooth_field(spec, 7.0, center=3.0, freq=1.5),
            ]
            pre = [maximal_p(f, p) for f in fs]
            for ell1 in range(1, 6):
                for ell2 in (1.0, 2.0, 3.0, 4.0, 5.0):
                    rep = sharp_ratio_probe(a, fs, ell1, ell2, p, precomputed_max=pre)
                    assert rep.flagged == 0
                    assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
                    values.append(rep.max_ratio)
        assert max(values) < 2.0 * min(values)


def test_criterion_10_endpoint_rank_audit():
    a = bessel(-0.25, 0.5, 0.5)
    pair = ExponentPair(2.0, INF)
    wc = WhitneyConfig(pair=pair, ell1=1, ell2=1.0)

    spec = GridSpec(1, 4, 7)
    corpus = make_corpus(spec, seed=11, count=10)
    for i in range(5):
        f, g = corpus[2 * i], corpus[2 * i + 1]
        coll = build_whitney_sparse(f, g, wc)
        rep = endpoint_audit(f, g, coll, a, 1, 1.0, pair)
        assert rep.base_residual < 1e-9
        assert rep.sets_disjoint and rep.measure_ok
        assert rep.poset_violations == []
        for v in (rep.a1, rep.a2, rep.a3, rep.a4):
            assert math.isfinite(v) and v >= 0.0
        assert all(rep.rank_ok)
        assert rep.ok

    # The assembled constant survives one grid refinement on a shared input.
    consts = []
    for kappa in (7, 8):
        spec_k = GridSpec(1, 4, kappa)
        f = smooth_field(spec_k, 5.0, center=-1.0, freq=2.0)
        g = smooth_field(spec_k, 4.0, center=1.5)
        coll = build_whitney_sparse(f, g, wc)
        rep = endpoint_audit(f, g, coll, a, 1, 1.0, pair)
        assert rep.ok
        consts.append(rep.final_constant)
    assert min(consts) > 0.0
    assert max(consts) <= 2.0 * min(consts)
