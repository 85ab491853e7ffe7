"""Symbol families and derivative-decay probes.

A symbol is a function ``a(x, xi)`` tagged with its declared order ``m`` and
decay parameters ``(rho, delta)``.  Membership in the declared class is not
enforced; the :func:`seminorm_probe` measures weighted finite-difference
derivatives so experiments can report how tight the declaration is.

Evaluation convention: ``x`` and ``xi`` are tuples of coordinate arrays (one
per axis), mutually broadcastable.  One-dimensional callers may pass bare
arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SymbolClass",
    "bessel",
    "oscillatory_ct",
    "rough_bump",
    "multiplication",
    "custom_symbol",
    "seminorm_probe",
]

Coords = tuple[np.ndarray, ...]


def _as_coords(pts, n: int) -> Coords:
    if isinstance(pts, tuple):
        if len(pts) != n:
            raise ValueError(f"expected {n} coordinate arrays, got {len(pts)}")
        return tuple(np.asarray(p, dtype=np.float64) for p in pts)
    arr = np.asarray(pts, dtype=np.float64)
    if n != 1:
        raise ValueError("bare arrays are only accepted in dimension one")
    return (arr,)


def _norm(coords: Coords) -> np.ndarray:
    if len(coords) == 1:
        return np.abs(coords[0])
    return np.sqrt(sum(c * c for c in coords))


@dataclass(frozen=True)
class SymbolClass:
    """Symbol with declared order/decay data and an evaluation callable.

    ``kind`` is ``smooth`` (x-derivatives allowed), ``rough_symbol`` (only
    bounded measurable x-dependence is declared), or any future tag the
    probes treat as rough.
    """

    family: str
    m: float
    rho: float
    delta: float
    kind: str
    n: int
    fn: Callable[[Coords, Coords], np.ndarray]
    x_factor: Callable[[Coords], np.ndarray] | None = None
    xi_factor: Callable[[Coords], np.ndarray] | None = None

    def eval(self, x, xi) -> np.ndarray:
        """``a(x, xi)``: float64 when ``fn`` returns real values (of any
        real or integer dtype), complex128 when it returns complex ones,
        even with a zero imaginary part.  The coordinates arrive as
        mutually broadcastable arrays, one per axis (the operators pass x
        of shape ``(B, 1, ...)`` and xi of shape ``(1, N, ...)``), and the
        value need only broadcast to their common shape: a scalar, or an
        array that ignores x or xi, is fine."""
        xc = _as_coords(x, self.n)
        xic = _as_coords(xi, self.n)
        v = np.asarray(self.fn(xc, xic))
        return v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)

    @property
    def structure(self) -> str:
        """``multiplier`` (a xi-factor only), ``separable`` (an x-factor,
        times a xi-factor if there is one) or ``general`` (no factors)."""
        if self.x_factor is not None:
            return "separable"
        return "general" if self.xi_factor is None else "multiplier"


def _factored(
    family: str,
    m: float,
    rho: float,
    delta: float,
    kind: str,
    n: int,
    x_fact: Callable[[Coords], np.ndarray] | None = None,
    xi_fact: Callable[[Coords], np.ndarray] | None = None,
) -> SymbolClass:
    """Symbol ``x_fact(x) * xi_fact(xi)``; an absent factor stands for 1.
    Real factors give real values."""

    def fn(x: Coords, xi: Coords) -> np.ndarray:
        if x_fact is None:
            return np.broadcast_arrays(x[0] * 0, xi_fact(xi))[1].copy()
        if xi_fact is None:
            return np.broadcast_arrays(x_fact(x), xi[0] * 0)[0].copy()
        return x_fact(x) * xi_fact(xi)

    return SymbolClass(
        family=family, m=m, rho=rho, delta=delta, kind=kind, n=n, fn=fn,
        x_factor=x_fact, xi_factor=xi_fact,
    )


def _bessel_factor(m: float) -> Callable[[Coords], np.ndarray]:
    return lambda xi: (1.0 + sum(c * c for c in xi)) ** (m / 2.0)


def bessel(m: float, rho: float = 1.0, delta: float = 0.0, n: int = 1) -> SymbolClass:
    """Smooth x-independent symbol ``(1 + |xi|**2)**(m/2)``.

    The honest decay parameters are ``(1, 0)``; pass smaller declared values
    to exercise estimates for rougher classes that this symbol also belongs
    to.
    """
    return _factored("bessel", m, rho, delta, "smooth", n, xi_fact=_bessel_factor(m))


def oscillatory_ct(rho: float, m0: float, n: int = 1) -> SymbolClass:
    """Oscillating factor ``exp(i |xi|**(1-rho))`` times a bessel of order ``m0``.

    Each xi-derivative trades one power of decay for ``rho`` of it, which is
    exactly the borderline behaviour of the declared class at its exponent.
    """
    if not (0 < rho <= 1):
        raise ValueError("oscillation exponent requires 0 < rho <= 1")
    bessel_m0 = _bessel_factor(m0)

    def xi_fact(xi: Coords) -> np.ndarray:
        return np.exp(1j * _norm(xi) ** (1.0 - rho)) * bessel_m0(xi)

    return _factored("oscillatory_ct", m0, rho, 0.0, "smooth", n, xi_fact=xi_fact)


def rough_bump(m: float, rho: float, n: int = 1) -> SymbolClass:
    """Sign-oscillating bounded coefficient times a bessel of order ``m``.

    ``b(x) = sign(sin(2**5 pi x_1))`` flips on a lattice of spacing ``2**-5``;
    at grid resolutions ``kappa >= 5`` every cell center sees a definite
    sign.  No x-regularity is declared (``kind = rough_symbol``).
    """

    def x_fact(x: Coords) -> np.ndarray:
        s = np.sin((2**5) * np.pi * x[0])
        return np.where(s >= 0, 1.0, -1.0)

    return _factored("rough_bump", m, rho, 0.0, "rough_symbol", n,
                     x_fact=x_fact, xi_fact=_bessel_factor(m))


_MULT_PRESETS: dict[str, Callable[[Coords], np.ndarray]] = {
    "cosine": lambda x: np.cos(np.pi * x[0] / 4.0),
}


def multiplication(phi: Callable[[Coords], np.ndarray] | str, n: int = 1) -> SymbolClass:
    """xi-independent symbol ``a(x, xi) = phi(x)``; the operator multiplies by
    ``phi`` pointwise since the xi-sum is then a plain inverse transform."""
    fn = _MULT_PRESETS[phi] if isinstance(phi, str) else phi
    return _factored("multiplication", 0.0, 1.0, 0.0, "smooth", n, x_fact=fn)


def custom_symbol(
    fn: Callable[[Coords, Coords], np.ndarray], m: float, rho: float, delta: float, n: int = 1
) -> SymbolClass:
    """A smooth symbol given only by ``fn``, with no factors: the operator
    takes the general kernel-row path.  ``fn(x, xi)`` receives broadcastable
    coordinate arrays, one per axis, and returns values that broadcast to
    their common shape (see :meth:`SymbolClass.eval`)."""
    return SymbolClass(family="custom", m=m, rho=rho, delta=delta, kind="smooth", n=n, fn=fn)


# Central finite-difference stencils per derivative order, offset -> weight.
_STENCILS: dict[int, dict[int, float]] = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}

_REL_STEP = 2.0**-10


def seminorm_probe(
    a: SymbolClass,
    alpha: Sequence[int],
    beta: Sequence[int],
    xi_grid,
    x_grid=None,
) -> float:
    """Weighted sup of the finite-difference derivative ``d_x^beta d_xi^alpha a``.

    Returns ``max |FD(a)| * (1 + |xi|)**(-m + rho*|alpha| - delta*|beta|)``
    over the product of the supplied point sets.  The xi step scales with
    ``1 + |xi|`` so relative accuracy is uniform across the grid.  Rough
    symbols reject ``beta != 0`` since no x-regularity is declared.
    """
    alpha = tuple(int(t) for t in alpha)
    beta = tuple(int(t) for t in beta)
    if len(alpha) != a.n or len(beta) != a.n:
        raise ValueError("multi-index length must match the dimension")
    if any(t < 0 for t in alpha + beta):
        raise ValueError("multi-index entries must be nonnegative")
    if sum(alpha) + sum(beta) > 4:
        raise ValueError("total derivative order is limited to 4")
    if a.kind != "smooth" and sum(beta) > 0:
        raise ValueError("no x-regularity declared for this symbol")

    if x_grid is None:
        x_grid = np.zeros(1) if a.n == 1 else tuple(np.zeros(1) for _ in range(a.n))
    xi = _as_coords(xi_grid, a.n)
    x = _as_coords(x_grid, a.n)
    # product grid: x varies along new leading axes
    xi_b = tuple(c[(None,) * a.n + (...,)] for c in xi)
    shape_x = np.broadcast_shapes(*(c.shape for c in x)) if a.n > 1 else x[0].shape
    x_b = tuple(
        np.broadcast_to(c, shape_x)[(...,) + (None,) * xi[0].ndim] for c in x
    )

    r = _norm(xi_b)
    h_xi = _REL_STEP * (1.0 + r)
    h_x = _REL_STEP

    axes = [(("xi", i), alpha[i]) for i in range(a.n)] + [
        (("x", i), beta[i]) for i in range(a.n)
    ]
    axes = [(tag, order) for tag, order in axes if order > 0]

    total = np.zeros(np.broadcast_shapes(x_b[0].shape, xi_b[0].shape), dtype=np.complex128)
    stencil_product = itertools.product(
        *(list(_STENCILS[order].items()) for _, order in axes)
    )
    for combo in stencil_product:
        weight = 1.0
        dxi = [np.zeros(1)] * a.n
        dx = [0.0] * a.n
        for ((var, axi), _), (off, w) in zip(axes, combo):
            weight *= w
            if var == "xi":
                dxi[axi] = dxi[axi] + off * h_xi
            else:
                dx[axi] = dx[axi] + off * h_x
        xs = tuple(xb + d for xb, d in zip(x_b, dx))
        xis = tuple(xib + d for xib, d in zip(xi_b, dxi))
        total = total + weight * a.fn(xs, xis)

    denom = np.ones_like(r)
    for (var, _), order in axes:
        denom = denom * (h_xi if var == "xi" else h_x) ** order
    deriv = np.abs(total) / denom

    weight_exp = -a.m + a.rho * sum(alpha) - a.delta * sum(beta)
    weighted = deriv * (1.0 + r) ** weight_exp
    return float(np.max(weighted))
