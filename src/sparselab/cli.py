"""Experiment runner: config-driven probe suites with JSON/CSV reports.

Configs are INI files (section/key = value).  A run executes the requested
probes, writes one JSON report per probe plus a ``summary.csv``, and exits 0
only if every probe passed.  Reports are deterministic for a fixed config
and seed: they embed the config hash and package version but no timing
(wall-clock numbers go to a separate ``timings.csv`` sidecar, which is
exempt from the byte-identical guarantee).

Exit codes: 0 all probes passed, 1 at least one probe failed or errored,
2 the config itself is invalid (message is anchored to the offending line).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import verify as V
from .pdo import PieceIndex, default_cutoffs, default_nu, piece_operator, symbol_operator
from .sample import ExponentPair, GridFunction, GridSpec, make_corpus, save_grid_function
from .sparse import (
    StoppingConfig,
    WhitneyConfig,
    build_stopping_time,
    build_whitney_sparse,
    verify_sparsity,
)
from .symbol import bessel, multiplication, oscillatory_ct, rough_bump

__all__ = ["main", "ConfigError", "load_config", "run_probes", "PROBES", "SUITES"]


class ConfigError(Exception):
    """Invalid configuration; message carries ``path:line:``."""


# ---------------------------------------------------------------------------
# config handling


_MISSING = object()


class Config:
    """Parsed INI plus the raw text, for line-anchored error messages."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            cp.read_string(text, source=path)
        except configparser.Error as exc:
            line = getattr(exc, "lineno", None) or 1
            first = str(exc).splitlines()[0]
            raise ConfigError(f"{path}:{line}: {first}") from exc
        self.cp = cp
        self.read: set[tuple[str, str]] = set()  # (section, option) pairs asked for

    def line_of(self, section: str, option: str | None = None) -> int:
        pat = (
            re.compile(rf"^\s*\[{re.escape(section)}\]", re.IGNORECASE)
            if option is None
            else re.compile(rf"^\s*{re.escape(option)}\s*[=:]", re.IGNORECASE)
        )
        in_section = option is None
        for i, raw in enumerate(self.text.splitlines(), start=1):
            if option is not None and re.match(rf"^\s*\[{re.escape(section)}\]", raw, re.IGNORECASE):
                in_section = True
                continue
            if option is not None and re.match(r"^\s*\[", raw):
                in_section = False
            if in_section and pat.match(raw):
                return i
        return 1

    def fail(self, section: str, option: str | None, message: str) -> ConfigError:
        return ConfigError(f"{self.path}:{self.line_of(section, option)}: {message}")

    def get(self, section: str, option: str, cast=str, default=_MISSING):
        self.read.add((section, self.cp.optionxform(option)))
        if not self.cp.has_option(section, option):
            if default is _MISSING:
                raise self.fail(section, None, f"missing required option {option!r} in [{section}]")
            return default
        raw = self.cp.get(section, option)
        try:
            if cast is Fraction:
                return Fraction(raw.strip())
            if cast is float and raw.strip().lower() in ("inf", "infinity"):
                return math.inf
            return cast(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise self.fail(section, option, f"cannot parse {option} = {raw!r} as {cast.__name__}") from exc

    def unknown(self, section: str, option: str) -> ConfigError:
        return self.fail(section, option, f"unknown option {option!r} in [{section}]")

    def reject_unread(self) -> None:
        """Raise for the first option that no :meth:`get` asked for, such as a
        misspelt key or section; call it once everything has been read.  A
        ``[DEFAULT]`` option counts as read when any section read it."""
        defaults = self.cp.defaults()
        read_anywhere = {option for _, option in self.read}
        unread = [(self.cp.default_section, o) for o in defaults if o not in read_anywhere]
        unread += [
            (section, option)
            for section in self.cp.sections()
            for option in self.cp.options(section)
            if option not in defaults and (section, option) not in self.read
        ]
        if unread:
            raise self.unknown(*unread[0])

    def as_dict(self) -> dict:
        return {s: dict(self.cp.items(s)) for s in self.cp.sections()}


def load_config(path: str) -> Config:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{path}:1: no such config file")
    return Config(str(path), p.read_text())


def _config_from_dict(data: dict, path: str = "<memory>") -> Config:
    lines = []
    for section, items in data.items():
        lines.append(f"[{section}]")
        for k, v in items.items():
            lines.append(f"{k} = {v}")
        lines.append("")
    return Config(path, "\n".join(lines))


def config_sha256(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# building the run context


_FAMILIES = ("bessel", "oscillatory", "rough_bump", "multiplication", "identity")

# Largest grid a config may ask for: 2**18 cells (N**n with N = 2**(K+kappa+1)),
# so 1D up to K + kappa = 17 (K = 2, kappa = 14) and 2D up to N = 512.
MAX_GRID_CELLS = 2**18
# Largest corpus: count * N**n complex samples, 64 MiB.
MAX_CORPUS_CELLS = 2**22


def _bounded_grid(n: int, K: int, kappa: int) -> GridSpec:
    """The grid a config asks for, refused above :data:`MAX_GRID_CELLS`
    before any array is allocated."""
    spec = GridSpec(n, K, kappa)
    bits = n * (K + kappa + 1)
    if bits > MAX_GRID_CELLS.bit_length() - 1:
        raise ValueError(f"grid of 2**{bits} cells exceeds the limit of {MAX_GRID_CELLS} cells")
    return spec


def _bounded_count(spec: GridSpec, count: int) -> int:
    """The corpus size a config or ``--count`` asks for, refused above
    :data:`MAX_CORPUS_CELLS` before any function is built."""
    cells = count * spec.N**spec.n
    if cells > MAX_CORPUS_CELLS:
        raise ValueError(f"corpus of {cells} cells exceeds the limit of {MAX_CORPUS_CELLS} cells")
    return count


def _build_or_fail(cfg: Config, section: str, option: str, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError reported at the line of
    the option it concerns."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise cfg.fail(section, option, str(exc)) from exc


def _build_symbol(cfg: Config, n: int):
    fam = cfg.get("symbol", "family", str, "bessel").strip().lower()
    m = cfg.get("symbol", "m", float, -1.0)
    rho = cfg.get("symbol", "rho", float, 1.0)
    delta = cfg.get("symbol", "delta", float, 0.0)
    if fam == "bessel":
        return bessel(m, rho=rho, delta=delta, n=n)
    if fam == "oscillatory":
        return _build_or_fail(cfg, "symbol", "rho", oscillatory_ct, rho, m, n=n)
    if fam == "rough_bump":
        return rough_bump(m, rho, n=n)
    if fam == "multiplication":
        return multiplication("cosine", n=n)
    if fam == "identity":
        return bessel(0.0, rho=1.0, delta=0.0, n=n)
    raise cfg.fail("symbol", "family", f"unknown symbol family {fam!r}; choose from {_FAMILIES}")


def _build_context(cfg: Config, seed_override: int | None) -> dict:
    n = cfg.get("grid", "n", int, 1)
    if n not in (1, 2):
        raise cfg.fail("grid", "n", "dimension must be 1 or 2")
    K = cfg.get("grid", "k", int)
    kappa = cfg.get("grid", "kappa", int)
    spec = _build_or_fail(cfg, "grid", "kappa", _bounded_grid, n, K, kappa)

    r = cfg.get("exponents", "r", float, 2.0)
    s = cfg.get("exponents", "s", float, 2.0)
    if r > s:
        raise cfg.fail("exponents", "r", "exponents violate r <= s")
    pair = _build_or_fail(cfg, "exponents", "r", ExponentPair, r, s)

    seed = cfg.get("corpus", "seed", int, 0)
    if seed < 0:
        raise cfg.fail("corpus", "seed", "seed must be nonnegative")
    if seed_override is not None:
        seed = seed_override
    count = cfg.get("corpus", "count", int, 4)
    if count < 1:
        raise cfg.fail("corpus", "count", "corpus count must be positive")
    _build_or_fail(cfg, "corpus", "count", _bounded_count, spec, count)

    a = _build_symbol(cfg, n)
    rho = a.rho
    if rho < 0:  # the default [decay] theta is min(rho, 1)
        raise cfg.fail("symbol", "rho", "rho must be nonnegative")

    ctx = {
        "spec": spec,
        "pair": pair,
        "symbol": a,
        "seed": seed,
        "count": count,
        "ell1": cfg.get("symbol", "ell1", int, 1),
        "nu": cfg.get("pieces", "nu", float, default_nu(rho)),
        "j_min": cfg.get("pieces", "j_min", int, 2),
        "j_max": cfg.get("pieces", "j_max", int, 6),
        "ell_min": cfg.get("pieces", "ell_min", int, 0),
        "ell_max": cfg.get("pieces", "ell_max", int, 5),
        "j_fixed": cfg.get("pieces", "j_fixed", int, 5),
        "mode": cfg.get("pieces", "mode", str, "l2_l2").strip(),
        "flavor": cfg.get("sparse", "flavor", str, "stopping").strip().lower(),
        "eta": cfg.get("sparse", "eta", Fraction, Fraction(1, 2)),
        "ell2": cfg.get("sparse", "ell2", float, 1.0),
        "tol_excess": cfg.get("tolerances", "slope_excess", float, 0.3),
        "tol_decay": cfg.get("tolerances", "decay_slope_max", float, -5.0),
        "tol_identity": cfg.get("tolerances", "identity_tol", float, 1e-10),
        "tol_schur": cfg.get("tolerances", "schur_slack", float, 1e-8),
    }
    for section, option in (
        ("symbol", "ell1"), ("sparse", "ell2"), ("pieces", "j_min"), ("pieces", "j_fixed"),
        ("pieces", "ell_min"),
    ):
        if ctx[option] < 0:
            raise cfg.fail(section, option, f"{option} must be nonnegative")
    if ctx["j_min"] > ctx["j_max"]:
        raise cfg.fail("pieces", "j_min", "empty band index range")
    if ctx["ell_min"] > ctx["ell_max"]:
        raise cfg.fail("pieces", "ell_min", "empty shell index range")
    ctx["pieces"] = [
        _build_or_fail(cfg, "pieces", "nu", PieceIndex, ctx["j_fixed"], ell, ctx["nu"])
        for ell in range(ctx["ell_min"], ctx["ell_max"] + 1)
    ]
    _build_or_fail(cfg, "pieces", "mode", V._mode_pair, ctx["mode"], pair)
    base = cfg.get("sparse", "threshold_base", float, 4.0)
    ctx["stopping"] = _build_or_fail(cfg, "sparse", "threshold_base", StoppingConfig, pair, base)
    decay = {
        "tau": cfg.get("decay", "tau", float, 0.125),
        "theta": cfg.get("decay", "theta", float, min(rho, 1.0)),
        "p": cfg.get("decay", "p", float, 2.0),
    }
    for option, value in decay.items():  # the other fields keep their valid defaults
        _build_or_fail(cfg, "decay", option, V.DecayProbeConfig, **{option: value})
    ctx["decay"] = V.DecayProbeConfig(**decay)
    if ctx["flavor"] not in ("stopping", "whitney"):
        raise cfg.fail("sparse", "flavor", "flavor must be stopping or whitney")
    if ctx["flavor"] == "whitney":
        _build_or_fail(cfg, "sparse", "flavor", _whitney_config, ctx)
    return ctx


def _whitney_config(ctx: dict) -> WhitneyConfig:
    return WhitneyConfig(pair=ctx["pair"], ell1=ctx["ell1"], ell2=ctx["ell2"], eta=ctx["eta"])


def _build_collection(ctx: dict, f: GridFunction, g: GridFunction):
    if ctx["flavor"] == "whitney":
        return build_whitney_sparse(f, g, _whitney_config(ctx))
    return build_stopping_time(f, g, ctx["stopping"])


# ---------------------------------------------------------------------------
# probes


def _identity_op(ctx):
    return symbol_operator(bessel(0.0, n=ctx["spec"].n), ctx["spec"])


def probe_identity_apply(ctx) -> V.ProbeReport:
    f = ctx["corpus"][0]
    err = float(np.max(np.abs(_identity_op(ctx)(f).values - f.values)))
    return V.ProbeReport(
        "identity_apply",
        {"function": f.name},
        {"sup_error": err},
        {},
        err < ctx["tol_identity"],
    )


def probe_identity_norm(ctx) -> V.ProbeReport:
    est = V.empirical_norm(_identity_op(ctx), ExponentPair(2.0, 2.0), ctx["spec"], seed=ctx["seed"])
    return V.ProbeReport(
        "identity_norm",
        {"pair": "2->2", "kind": est.kind},
        {"norm": est.value, "iterations": est.iterations},
        {},
        est.kind == "iterated" and abs(est.value - 1.0) < 1e-6,
    )


def probe_identity_schur(ctx) -> V.ProbeReport:
    rep = V.schur_bound(_identity_op(ctx), ExponentPair(2.0, 2.0), ctx["spec"])
    return V.ProbeReport(
        "identity_schur",
        {"pair": "2->2"},
        {"product_bound": rep.product_bound, "sum_variant": rep.sum_variant},
        {},
        abs(rep.product_bound - 1.0) < 1e-9,
    )


def probe_identity_sparse_form(ctx) -> V.ProbeReport:
    f, g = ctx["corpus"][0], ctx["corpus"][1 % len(ctx["corpus"])]
    coll = build_stopping_time(f, g, StoppingConfig(pair=ExponentPair(2.0, 2.0)))
    sp = verify_sparsity(coll)
    rep = V.sparse_form_ratio(_identity_op(ctx), f, g, coll, ExponentPair(2.0, 2.0))
    return V.ProbeReport(
        "identity_sparse_form",
        {"f": f.name, "g": g.name, "entries": rep.entry_count},
        {"ratio": rep.ratio, "pairing": rep.pairing, "form": rep.form},
        {},
        sp.ok and not rep.violation and rep.ratio <= 1.0 + 1e-9,
    )


def probe_sparse_form_ratio(ctx) -> V.ProbeReport:
    f, g = ctx["corpus"][0], ctx["corpus"][1 % len(ctx["corpus"])]
    coll = _build_collection(ctx, f, g)
    sp = verify_sparsity(coll)
    T = symbol_operator(ctx["symbol"], ctx["spec"])
    rep = V.sparse_form_ratio(T, f, g, coll, ctx["pair"])
    return V.ProbeReport(
        "sparse_form_ratio",
        {"f": f.name, "g": g.name, "flavor": ctx["flavor"], "entries": rep.entry_count},
        {"ratio": rep.ratio, "pairing": rep.pairing, "form": rep.form,
         "sparsity_margin": sp.min_margin},
        {},
        sp.ok and not rep.violation,
    )


def probe_pointwise_domination(ctx) -> V.ProbeReport:
    f = ctx["corpus"][0]
    zero = GridFunction.zeros(ctx["spec"])
    coll = build_stopping_time(f, zero, ctx["stopping"])
    T = symbol_operator(ctx["symbol"], ctx["spec"])
    rep = V.pointwise_domination_check(T, f, coll, ctx["pair"].r)
    return V.ProbeReport(
        "pointwise_domination",
        {"f": f.name, "entries": len(coll.entries), "r": ctx["pair"].r},
        {"constant": rep.constant, "covered_fraction": rep.covered_fraction,
         "uncovered": rep.uncovered_count},
        {},
        rep.uncovered_count == 0 and math.isfinite(rep.constant),
    )


def probe_schur_piece(ctx) -> V.ProbeReport:
    fam = default_cutoffs()
    spec, pair = ctx["spec"], ctx["pair"]
    worst_slack = math.inf
    bounds, emps = [], []
    for idx in ctx["pieces"]:
        op = piece_operator(ctx["symbol"], fam, idx, spec)
        b = V.schur_bound(op, pair, spec).product_bound
        e = V.empirical_norm(op, pair, spec, seed=ctx["seed"]).value
        bounds.append(b)
        emps.append(e)
        worst_slack = min(worst_slack, b - e)
    return V.ProbeReport(
        "schur_piece",
        {"j": ctx["j_fixed"], "ells": [ctx["ell_min"], ctx["ell_max"]]},
        {"max_bound": max(bounds), "max_empirical": max(emps), "min_slack": worst_slack},
        {},
        worst_slack >= -ctx["tol_schur"],
    )


def probe_norm_scaling(ctx) -> V.ProbeReport:
    js = list(range(ctx["j_min"], ctx["j_max"] + 1))
    fit = V.norm_scaling_fit(ctx["symbol"], ctx["spec"], ctx["mode"], pair=ctx["pair"], js=js,
                             seed=ctx["seed"])
    passed = (
        "capped" not in fit.kinds and fit.excess is not None and fit.excess <= ctx["tol_excess"]
    )
    return V.ProbeReport(
        "norm_scaling",
        {"mode": fit.mode, "js": js, "kinds": fit.kinds},
        {"total": fit.total},
        {"slope": fit.slope, "predicted": fit.predicted_slope, "excess": fit.excess,
         "residual": fit.residual},
        passed,
    )


def probe_kernel_decay(ctx) -> V.ProbeReport:
    ells = [idx.ell for idx in ctx["pieces"]]
    fit = V.kernel_decay_fit(ctx["symbol"], ctx["spec"], ctx["j_fixed"], ells, ctx["nu"])
    return V.ProbeReport(
        "kernel_decay",
        {"j": ctx["j_fixed"], "ells": fit.indices, "nu": ctx["nu"]},
        {},
        {"slope": fit.slope, "residual": fit.residual},
        fit.slope <= ctx["tol_decay"],
    )


def probe_kernel_difference(ctx) -> V.ProbeReport:
    cfg = ctx["decay"]
    x_b = (-cfg.tau,) + (0.0,) * (ctx["spec"].n - 1)
    fit = V.kernel_difference_probe(ctx["symbol"], ctx["spec"], 0.0, x_b, cfg)
    passed = fit.predicted_slope is not None and fit.slope <= fit.predicted_slope + 0.5
    return V.ProbeReport(
        "kernel_difference",
        {"tau": cfg.tau, "theta": cfg.theta, "p": cfg.p, "annuli": fit.indices},
        {},
        {"slope": fit.slope, "predicted": fit.predicted_slope, "excess": fit.excess,
         "residual": fit.residual},
        passed,
    )


def probe_sharp_ratio(ctx) -> V.ProbeReport:
    rep = V.sharp_ratio_probe(
        ctx["symbol"], ctx["corpus"], ctx["ell1"], ctx["ell2"], ctx["pair"].r
    )
    return V.ProbeReport(
        "sharp_ratio",
        {"ell1": ctx["ell1"], "ell2": ctx["ell2"], "p": ctx["pair"].r,
         "corpus": len(ctx["corpus"])},
        {"max_ratio": rep.max_ratio, "median_ratio": rep.median_ratio,
         "active_cells": rep.active_cells, "flagged": rep.flagged},
        {},
        rep.flagged == 0 and math.isfinite(rep.max_ratio),
    )


def probe_endpoint_audit(ctx) -> V.ProbeReport:
    f, g = ctx["corpus"][0], ctx["corpus"][1 % len(ctx["corpus"])]
    coll = build_whitney_sparse(f, g, _whitney_config(ctx))
    rep = V.endpoint_audit(f, g, coll, ctx["symbol"], ctx["ell1"], ctx["ell2"], ctx["pair"])
    return V.ProbeReport(
        "endpoint_audit",
        {"f": f.name, "g": g.name, "entries": len(coll.entries), "max_rank": coll.max_rank()},
        {"base_residual": rep.base_residual, "c0": rep.c0,
         "final_constant": rep.final_constant, "a1": rep.a1, "a2": rep.a2,
         "a3": rep.a3, "a4": rep.a4},
        {},
        rep.ok,
    )


@dataclass(frozen=True)
class Probe:
    fn: Callable[[dict], V.ProbeReport]
    suite: str
    primary: tuple[str, str]  # report group and key of the summary column


PROBES = {
    "identity_apply": Probe(probe_identity_apply, "identity", ("constants", "sup_error")),
    "identity_norm": Probe(probe_identity_norm, "identity", ("constants", "norm")),
    "identity_schur": Probe(probe_identity_schur, "identity", ("constants", "product_bound")),
    "identity_sparse_form": Probe(probe_identity_sparse_form, "identity", ("constants", "ratio")),
    "sparse_form_ratio": Probe(probe_sparse_form_ratio, "sparse", ("constants", "ratio")),
    "pointwise_domination": Probe(probe_pointwise_domination, "sparse", ("constants", "constant")),
    "schur_piece": Probe(probe_schur_piece, "kernels", ("constants", "min_slack")),
    "norm_scaling": Probe(probe_norm_scaling, "kernels", ("slopes", "slope")),
    "kernel_decay": Probe(probe_kernel_decay, "kernels", ("slopes", "slope")),
    "kernel_difference": Probe(probe_kernel_difference, "kernels", ("slopes", "slope")),
    "sharp_ratio": Probe(probe_sharp_ratio, "sparse", ("constants", "max_ratio")),
    "endpoint_audit": Probe(probe_endpoint_audit, "sparse", ("constants", "final_constant")),
}

SUITES = {
    suite: [name for name, p in PROBES.items() if p.suite == suite]
    for suite in ("identity", "kernels", "sparse")
}


def _primary(rep: dict) -> tuple[str, object]:
    """Summary column name and value of a report."""
    group, key = PROBES[rep["name"]].primary
    return key, rep.get(group, {}).get(key, "")


def _probe_list(cfg: Config) -> list[str]:
    suite = cfg.get("probes", "suite", str, "")
    explicit = cfg.get("probes", "run", str, "")
    if suite and explicit:
        raise cfg.fail("probes", "suite", "give either a suite or an explicit run list, not both")
    if suite:
        key = suite.strip().lower()
        if key not in SUITES:
            raise cfg.fail("probes", "suite", f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
        return list(SUITES[key])
    if explicit:
        names = [t.strip() for t in explicit.split(",") if t.strip()]
        bad = [t for t in names if t not in PROBES]
        if bad:
            raise cfg.fail("probes", "run", f"unknown probes: {', '.join(bad)}")
        if not names:
            raise cfg.fail("probes", "run", "empty probe list")
        return names
    raise cfg.fail("probes", None, "the [probes] section needs a suite or a run list")


def _probe_task(payload):
    """Worker entry: rebuild everything deterministically and run one probe."""
    data, seed, name = payload
    cfg = _config_from_dict(data, path="<config>")
    ctx = _build_context(cfg, seed)
    ctx["corpus"] = make_corpus(ctx["spec"], seed=ctx["seed"], count=ctx["count"])
    t0 = time.perf_counter()
    try:
        rep = PROBES[name].fn(ctx)
        out = V.report_dict(rep)
    except Exception as exc:  # probe errors are failures, not crashes
        out = {
            "name": name,
            "inputs": {},
            "constants": {"error": f"{type(exc).__name__}: {exc}"},
            "slopes": {},
            "passed": False,
        }
    return name, out, time.perf_counter() - t0


def _worker_count(jobs: int, cpus: int | None, tasks: int) -> int:
    """Worker processes for a run: never more than the CPUs or the probes."""
    return min(jobs, cpus or 1, tasks)


def run_probes(
    cfg: Config,
    names: list[str],
    out_dir: Path,
    seed: int | None,
    jobs: int = 1,
) -> tuple[bool, list[dict]]:
    data = cfg.as_dict()
    sha = config_sha256(data)
    payloads = [(data, seed, name) for name in names]
    workers = _worker_count(jobs, os.cpu_count(), len(names))
    if workers > 1:
        # imported here: loading multiprocessing costs every serial run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_probe_task, payloads))
    else:
        results = [_probe_task(p) for p in payloads]
    results.sort(key=lambda t: t[0])

    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    timings = []
    for name, rep, secs in results:
        rep = dict(rep)
        rep["config_sha256"] = sha
        rep["version"] = __version__
        (out_dir / f"{name}.json").write_text(json.dumps(rep, sort_keys=True, indent=2) + "\n")
        reports.append(rep)
        timings.append((name, secs))

    with (out_dir / "summary.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe", "passed", "primary", "value"])
        for rep in reports:
            w.writerow([rep["name"], rep["passed"], *_primary(rep)])

    with (out_dir / "timings.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe", "seconds"])
        for name, secs in timings:
            w.writerow([name, f"{secs:.3f}"])

    return all(r["passed"] for r in reports), reports


# ---------------------------------------------------------------------------
# commands


def _checked_probes(cfg: Config, seed: int | None) -> list[str]:
    """The probes a config requests, after building its context once so that
    config errors, unknown options included, exit 2 before anything runs."""
    names = _probe_list(cfg)
    _build_context(cfg, seed)
    cfg.reject_unread()
    return names


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        names = _checked_probes(cfg, args.seed)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    ok, reports = run_probes(cfg, names, Path(args.out), args.seed, args.jobs)
    for rep in reports:
        status = "pass" if rep["passed"] else "FAIL"
        print(f"{rep['name']}: {status}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    try:
        cfg = load_config(args.config)
        _checked_probes(cfg, args.seed)
        if "." not in args.axis:
            raise ConfigError(f"{args.config}:1: axis must be section.option, got {args.axis!r}")
        section, option = args.axis.split(".", 1)
        option = cfg.cp.optionxform(option)
        values = [t.strip() for t in args.values.split(",") if t.strip()]
        if not values:
            raise ConfigError(f"{args.config}:1: empty sweep value list")
        # every swept config is checked before any of them runs
        swept = []
        for value in values:
            data = cfg.as_dict()
            data.setdefault(section, {})[option] = value
            # as_dict copies [DEFAULT] into every section; kept as defaults too,
            # they pass reject_unread as in the base config, so only the axis can fail
            data[cfg.cp.default_section] = cfg.cp.defaults()
            vcfg = _config_from_dict(data, path=f"<{args.axis}={value}>")
            swept.append((value, vcfg, _checked_probes(vcfg, args.seed)))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    out_root = Path(args.out)
    rows = []
    all_ok = True
    for value, vcfg, names in swept:
        ok, reports = run_probes(vcfg, names, out_root / f"{option}={value}", args.seed, args.jobs)
        all_ok = all_ok and ok
        rows += [[value, rep["name"], rep["passed"], _primary(rep)[1]] for rep in reports]

    out_root.mkdir(parents=True, exist_ok=True)
    with (out_root / "sweep.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([args.axis, "probe", "passed", "value"])
        w.writerows(rows)
    print(f"swept {args.axis} over {len(values)} values -> {out_root / 'sweep.csv'}")
    return 0 if all_ok else 1


def _parse_inline_spec(text: str) -> GridSpec:
    vals = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"<spec>:1: expected key=value pairs, got {part!r}")
        k, v = part.split("=", 1)
        vals[k.strip().lower()] = v.strip()
    try:
        return _bounded_grid(int(vals.get("n", 1)), int(vals["k"]), int(vals["kappa"]))
    except KeyError as exc:
        raise ConfigError("<spec>:1: inline grid spec needs K and kappa") from exc
    except ValueError as exc:
        raise ConfigError(f"<spec>:1: {exc}") from exc


def _cmd_corpus(args) -> int:
    try:
        if Path(args.spec).is_file():
            cfg = load_config(args.spec)
            ctx = _build_context(cfg, args.seed)
            if cfg.cp.has_section("probes"):
                _probe_list(cfg)  # a run config serves lab corpus too
            cfg.reject_unread()
            spec, seed, count = ctx["spec"], ctx["seed"], ctx["count"]
        else:
            spec = _parse_inline_spec(args.spec)
            seed = args.seed if args.seed is not None else 0
            count = 4
        if args.count is not None:
            try:
                count = _bounded_count(spec, args.count)
            except ValueError as exc:
                raise ConfigError(f"--count: {exc}") from exc
        fns = make_corpus(spec, seed=seed, count=count)
    except (ConfigError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "manifest.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "file", "name", "l2_norm"])
        for i, f in enumerate(fns):
            fname = f"corpus_{i:03d}.gf"
            save_grid_function(out / fname, f)
            w.writerow([i, fname, f.name, f"{f.lp_norm(2.0):.12e}"])
    print(f"wrote {len(fns)} functions to {out}")
    return 0


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return at_least


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="lab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    probes = argparse.ArgumentParser(add_help=False)
    probes.add_argument("config")
    probes.add_argument("--seed", type=_at_least(0), default=None)
    probes.add_argument(
        "--jobs", type=_at_least(1), default=1, help="worker processes (at most the CPUs)"
    )

    p_run = sub.add_parser("run", parents=[probes], help="execute the probes a config requests")
    p_run.add_argument("--out", default="reports")
    p_run.set_defaults(fn=_cmd_run)

    p_sw = sub.add_parser("sweep", parents=[probes], help="rerun a config across values of one key")
    p_sw.add_argument("--axis", required=True, help="section.option to vary")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("--out", default="sweep")
    p_sw.set_defaults(fn=_cmd_sweep)

    p_co = sub.add_parser("corpus", help="dump the deterministic test corpus")
    p_co.add_argument("spec", help="config path or inline n=..,K=..,kappa=..")
    p_co.add_argument("--seed", type=_at_least(0), default=None)
    p_co.add_argument("--count", type=_at_least(1), default=None)
    p_co.add_argument("--out", default="corpus")
    p_co.set_defaults(fn=_cmd_corpus)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
