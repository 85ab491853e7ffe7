"""Config-driven runner: exit codes, determinism, and report layout."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sparselab import __version__, cli, verify
from sparselab.cli import _FAMILIES, _build_context, _worker_count, load_config, main
from sparselab.sample import load_grid_function

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

IDENTITY_INI = """\
[grid]
n = 1
K = 2
kappa = 5

[probes]
suite = identity
"""


def write(tmp_path, text, name="probes.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRun:
    def test_identity_suite_passes(self, tmp_path, capsys):
        ini = write(tmp_path, IDENTITY_INI)
        out = tmp_path / "reports"
        assert run_cli("run", ini, "--out", str(out)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "identity_apply: pass",
            "identity_norm: pass",
            "identity_schur: pass",
            "identity_sparse_form: pass",
        ]
        names = sorted(p.name for p in out.glob("*.json"))
        assert names == [
            "identity_apply.json",
            "identity_norm.json",
            "identity_schur.json",
            "identity_sparse_form.json",
        ]
        assert (out / "summary.csv").is_file()
        assert (out / "timings.csv").is_file()

    def test_reports_carry_hash_and_version(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI)
        out = tmp_path / "reports"
        run_cli("run", ini, "--out", str(out))
        rep = json.loads((out / "identity_norm.json").read_text())
        assert rep["version"] == __version__
        assert len(rep["config_sha256"]) == 64
        assert rep["passed"] is True

    def test_reruns_are_byte_identical(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        run_cli("run", ini, "--out", str(out1))
        run_cli("run", ini, "--out", str(out2))
        for p in out1.glob("*.json"):
            assert p.read_bytes() == (out2 / p.name).read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI)
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        run_cli("run", ini, "--out", str(out1))
        run_cli("run", ini, "--out", str(out2), "--jobs", "2")
        for p in out1.glob("*.json"):
            assert p.read_bytes() == (out2 / p.name).read_bytes()

    def test_summary_layout(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI)
        out = tmp_path / "reports"
        run_cli("run", ini, "--out", str(out))
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert rows[0] == "probe,passed,primary,value"
        assert len(rows) == 5
        assert rows[1].startswith("identity_apply,True,sup_error,")

    def test_failing_tolerance_exits_one(self, tmp_path, capsys):
        ini = write(
            tmp_path,
            IDENTITY_INI + "\n[tolerances]\nidentity_tol = 0\n",
        )
        out = tmp_path / "reports"
        assert run_cli("run", ini, "--out", str(out)) == 1
        assert "identity_apply: FAIL" in capsys.readouterr().out
        rep = json.loads((out / "identity_apply.json").read_text())
        assert rep["passed"] is False

    def test_probe_error_is_a_failed_report(self, tmp_path, capsys):
        # nu at or above the symbol's rho makes the decay fit raise
        ini = write(
            tmp_path,
            "[grid]\nn = 1\nK = 2\nkappa = 5\n\n[symbol]\nrho = 0.5\n\n"
            "[pieces]\nnu = 0.6\n\n[probes]\nrun = kernel_decay\n",
        )
        out = tmp_path / "reports"
        assert run_cli("run", ini, "--out", str(out)) == 1
        assert "kernel_decay: FAIL" in capsys.readouterr().out
        rep = json.loads((out / "kernel_decay.json").read_text())
        assert rep["constants"]["error"].startswith("ValueError:")
        assert rep["passed"] is False
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert rows[1] == "kernel_decay,False,slope,"

    def test_identity_norm_carries_its_kind(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI)
        out = tmp_path / "reports"
        run_cli("run", ini, "--out", str(out))
        rep = json.loads((out / "identity_norm.json").read_text())
        assert rep["inputs"]["kind"] == "iterated"
        assert rep["constants"] == {"norm": 1.0, "iterations": 1}

    def test_capped_norm_fails_the_probe(self, tmp_path, monkeypatch):
        ini = write(
            tmp_path,
            "[grid]\nn = 1\nK = 2\nkappa = 5\n\n[pieces]\nj_min = 2\nj_max = 4\n"
            "mode = l2_l2\n\n[probes]\nrun = norm_scaling\n",
        )
        out = tmp_path / "reports"
        assert run_cli("run", ini, "--out", str(out)) == 0
        rep = json.loads((out / "norm_scaling.json").read_text())
        assert rep["inputs"]["kinds"] == ["iterated"] * 3
        monkeypatch.setattr(verify, "_MAX_ITER", 2)
        assert run_cli("run", ini, "--out", str(out)) == 1
        rep = json.loads((out / "norm_scaling.json").read_text())
        assert "capped" in rep["inputs"]["kinds"]
        assert rep["passed"] is False

    def test_explicit_probe_list(self, tmp_path):
        ini = write(
            tmp_path,
            "[grid]\nn = 1\nK = 2\nkappa = 5\n\n[probes]\nrun = identity_apply, identity_schur\n",
        )
        out = tmp_path / "reports"
        assert run_cli("run", ini, "--out", str(out)) == 0
        assert sorted(p.name for p in out.glob("*.json")) == [
            "identity_apply.json",
            "identity_schur.json",
        ]


class TestJobs:
    def test_worker_count_is_clamped(self):
        assert _worker_count(10**6, 2, 4) == 2
        assert _worker_count(8, 16, 3) == 3
        assert _worker_count(3, None, 4) == 1
        assert _worker_count(1, 8, 4) == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_jobs_below_one_exits_two(self, tmp_path, capsys, command):
        ini = write(tmp_path, IDENTITY_INI)
        sweep = ["--axis", "grid.kappa", "--values", "4"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            run_cli(command, ini, *sweep, "--jobs", "0", "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corpus_count_below_one_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("corpus", "n=1,K=2,kappa=6", "--count", "0", "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert "--count: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGridBound:
    """A grid above MAX_GRID_CELLS exits 2 at config load, before the
    corpus (the first allocation of N**n cells) is built."""

    @pytest.fixture(autouse=True)
    def no_oversized_corpus(self, monkeypatch):
        make_corpus = cli.make_corpus

        def guarded(spec, *args, **kwargs):
            assert spec.N**spec.n <= cli.MAX_GRID_CELLS, "corpus built for an oversized grid"
            return make_corpus(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "make_corpus", guarded)

    @pytest.mark.parametrize("command", ["run", "sweep", "corpus"])
    def test_config_exits_two(self, tmp_path, capsys, command):
        ini = write(tmp_path, IDENTITY_INI.replace("kappa = 5", "kappa = 40"))
        sweep = ["--axis", "grid.K", "--values", "2"] if command == "sweep" else []
        assert run_cli(command, ini, *sweep, "--out", str(tmp_path / "out")) == 2
        assert f"{ini}:4: grid of 2**43 cells exceeds the limit of 262144 cells" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_swept_value_exits_two(self, tmp_path, capsys):
        ini = write(tmp_path, IDENTITY_INI)
        out = tmp_path / "out"
        code = run_cli("sweep", ini, "--axis", "grid.kappa", "--values", "40", "--out", str(out))
        assert code == 2
        assert "<grid.kappa=40>:4: grid of 2**43 cells" in capsys.readouterr().err
        assert not out.exists()

    def test_inline_spec_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("corpus", "n=2,K=2,kappa=40", "--out", str(out)) == 2
        assert "<spec>:1: grid of 2**86 cells exceeds the limit" in capsys.readouterr().err
        assert not out.exists()

    def test_limit_admits_one_dimensional_kappa_14(self):
        assert cli._bounded_grid(1, 2, 14).N == 2**17
        assert cli._bounded_grid(2, 0, 8).N == 2**9
        with pytest.raises(ValueError, match="exceeds the limit"):
            cli._bounded_grid(2, 0, 9)


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "nope.ini")) == 2
        assert "no such config file" in capsys.readouterr().err

    def test_exponent_order_is_line_anchored(self, tmp_path, capsys):
        text = "[grid]\nn = 1\nK = 2\nkappa = 5\n\n[exponents]\nr = 4\ns = 2\n\n[probes]\nsuite = identity\n"
        ini = write(tmp_path, text)
        assert run_cli("run", ini) == 2
        err = capsys.readouterr().err
        assert f"{ini}:7: exponents violate r <= s" in err

    def test_unknown_suite(self, tmp_path, capsys):
        ini = write(tmp_path, IDENTITY_INI.replace("identity", "everything"))
        assert run_cli("run", ini) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_unknown_probe(self, tmp_path, capsys):
        ini = write(
            tmp_path, "[grid]\nn = 1\nK = 2\nkappa = 5\n\n[probes]\nrun = no_such_probe\n"
        )
        assert run_cli("run", ini) == 2
        assert "unknown probes: no_such_probe" in capsys.readouterr().err

    def test_suite_and_run_conflict(self, tmp_path, capsys):
        ini = write(
            tmp_path,
            "[grid]\nn = 1\nK = 2\nkappa = 5\n\n[probes]\nsuite = identity\nrun = identity_apply\n",
        )
        assert run_cli("run", ini) == 2
        assert "not both" in capsys.readouterr().err

    def test_probes_section_required(self, tmp_path, capsys):
        ini = write(tmp_path, "[grid]\nn = 1\nK = 2\nkappa = 5\n")
        assert run_cli("run", ini) == 2
        assert "needs a suite or a run list" in capsys.readouterr().err

    def test_missing_grid_option(self, tmp_path, capsys):
        ini = write(tmp_path, "[grid]\nn = 1\nK = 2\n\n[probes]\nsuite = identity\n")
        assert run_cli("run", ini) == 2
        assert "missing required option 'kappa'" in capsys.readouterr().err

    def test_unparseable_value(self, tmp_path, capsys):
        ini = write(
            tmp_path, "[grid]\nn = 1\nK = two\nkappa = 5\n\n[probes]\nsuite = identity\n"
        )
        assert run_cli("run", ini) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_syntax_error_is_line_anchored(self, tmp_path, capsys):
        ini = write(tmp_path, "[grid]\nn = 1\nK = 2\nK = 3\nkappa = 5\n")
        assert run_cli("run", ini) == 2
        assert capsys.readouterr().err.startswith(f"{ini}:4: ")

    def test_unknown_family_is_line_anchored(self, tmp_path, capsys):
        text = IDENTITY_INI + "\n[symbol]\nm = -1\nfamily = nonesuch\n"
        line = text.splitlines().index("family = nonesuch") + 1
        ini = write(tmp_path, text)
        assert run_cli("run", ini) == 2
        assert f"{ini}:{line}: unknown symbol family 'nonesuch'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, anchor, message",
        [
            ("kappa = 5\nkapa = 9\n", "kapa = 9", "unknown option 'kapa' in [grid]"),
            ("kappa = 5\n\n[grdi]\nkappa = 6\n", "kappa = 6", "unknown option 'kappa' in [grdi]"),
        ],
        ids=["misspelt-option", "misspelt-section"],
    )
    def test_unknown_option_is_line_anchored(self, tmp_path, capsys, extra, anchor, message):
        text = IDENTITY_INI.replace("kappa = 5\n", extra)
        line = text.splitlines().index(anchor) + 1
        ini = write(tmp_path, text)
        out = tmp_path / "reports"
        assert run_cli("run", ini, "--out", str(out)) == 2
        assert f"{ini}:{line}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_seed_is_known_under_seed_flag(self, tmp_path):
        # --seed overrides corpus.seed, which still counts as read; the same
        # config also serves lab corpus, which has no [probes] to read
        text = IDENTITY_INI.replace("suite = identity", "run = identity_apply")
        ini = write(tmp_path, text + "\n[corpus]\nseed = 3\ncount = 2\n")
        assert run_cli("run", ini, "--seed", "7", "--out", str(tmp_path / "r")) == 0
        assert run_cli("corpus", ini, "--out", str(tmp_path / "c")) == 0


class TestContext:
    def test_infinite_exponent_and_fractional_eta(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI + "\n[exponents]\ns = inf\n\n[sparse]\neta = 1/3\n")
        ctx = _build_context(load_config(ini), None)
        assert ctx["pair"].s == math.inf
        assert ctx["eta"] == Fraction(1, 3)
        assert isinstance(ctx["eta"], Fraction)

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_every_family_builds(self, tmp_path, family):
        ini = write(tmp_path, IDENTITY_INI + f"\n[symbol]\nfamily = {family}\nrho = 0.5\n")
        a = _build_context(load_config(ini), None)["symbol"]
        want = {"oscillatory": "oscillatory_ct", "identity": "bessel"}.get(family, family)
        assert (a.family, a.n) == (want, 1)
        if family == "identity":
            assert a.m == 0.0


class TestSweep:
    def test_sweep_over_kappa(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI)
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", ini, "--axis", "grid.kappa", "--values", "4,5", "--out", str(out)
        )
        assert code == 0
        assert (out / "kappa=4" / "summary.csv").is_file()
        assert (out / "kappa=5" / "summary.csv").is_file()
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "grid.kappa,probe,passed,value"
        assert len(rows) == 9  # two values x four probes

    def test_axis_must_have_section(self, tmp_path, capsys):
        ini = write(tmp_path, IDENTITY_INI)
        assert run_cli("sweep", ini, "--axis", "kappa", "--values", "4") == 2
        assert "section.option" in capsys.readouterr().err

    def test_values_must_be_nonempty(self, tmp_path, capsys):
        ini = write(tmp_path, IDENTITY_INI)
        assert run_cli("sweep", ini, "--axis", "grid.kappa", "--values", " , ") == 2
        assert "empty sweep value list" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["grid.kapa", "grdi.kappa"])
    def test_unknown_swept_option(self, tmp_path, capsys, monkeypatch, axis):
        monkeypatch.chdir(tmp_path)
        ini = write(tmp_path, IDENTITY_INI)
        assert run_cli("sweep", ini, "--axis", axis, "--values", "4,5") == 2
        section, option = axis.split(".")
        err = capsys.readouterr().err
        assert f"<{axis}=4>:" in err
        assert f"unknown option {option!r} in [{section}]" in err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_axis_in_any_case(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI.replace("suite = identity", "run = identity_apply"))
        out = tmp_path / "sweep"
        assert run_cli("sweep", ini, "--axis", "grid.K", "--values", "1,2", "--out", str(out)) == 0
        assert (out / "k=1" / "summary.csv").is_file()

    def test_default_section_options_stay_defaults(self, tmp_path):
        # a [DEFAULT] option that one section reads is read in every swept config
        ini = write(tmp_path, "[DEFAULT]\ncount = 1\n\n" + IDENTITY_INI + "\n[corpus]\n")
        out = tmp_path / "sweep"
        assert run_cli("sweep", ini, "--axis", "grid.kappa", "--values", "4", "--out", str(out)) == 0
        assert (out / "kappa=4" / "summary.csv").is_file()

    def test_bad_swept_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ini = write(tmp_path, IDENTITY_INI)
        code = run_cli("sweep", ini, "--axis", "grid.kappa", "--values", "4,oops")
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


class TestCorpus:
    def test_inline_spec(self, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli("corpus", "n=1,K=2,kappa=4", "--count", "3", "--out", str(out)) == 0
        rows = (out / "manifest.csv").read_text().strip().splitlines()
        assert rows[0] == "index,file,name,l2_norm"
        assert len(rows) == 4
        first = rows[1].split(",")
        f = load_grid_function(out / first[1])
        assert f.lp_norm(2.0) == pytest.approx(float(first[3]), rel=1e-12)

    def test_config_spec(self, tmp_path):
        ini = write(tmp_path, IDENTITY_INI + "\n[corpus]\ncount = 2\n")
        out = tmp_path / "corpus"
        assert run_cli("corpus", ini, "--out", str(out)) == 0
        rows = (out / "manifest.csv").read_text().strip().splitlines()
        assert len(rows) == 3

    def test_unknown_option_is_line_anchored(self, tmp_path, capsys):
        text = IDENTITY_INI + "\n[corpus]\ncont = 2\n"
        line = text.splitlines().index("cont = 2") + 1
        ini = write(tmp_path, text)
        out = tmp_path / "corpus"
        assert run_cli("corpus", ini, "--out", str(out)) == 2
        assert f"{ini}:{line}: unknown option 'cont' in [corpus]" in capsys.readouterr().err
        assert not out.exists()

    def test_incomplete_inline_spec(self, tmp_path, capsys):
        assert run_cli("corpus", "n=1", "--out", str(tmp_path / "c")) == 2
        assert "needs K and kappa" in capsys.readouterr().err

    def test_malformed_inline_spec(self, tmp_path, capsys):
        assert run_cli("corpus", "garbage", "--out", str(tmp_path / "c")) == 2
        assert "key=value" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    ini = tmp_path / "probes.ini"
    ini.write_text(IDENTITY_INI)
    out = tmp_path / "reports"
    # pytest's pythonpath setting does not reach a child interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparselab.cli", "run", str(ini), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "identity_norm: pass" in proc.stdout


KERNEL_PROBES_2D_INI = """\
[grid]
n = 2
K = 1
kappa = 4

[symbol]
family = bessel
m = -0.25
rho = 0.5
delta = 0.5

[exponents]
r = 2
s = inf

[pieces]
nu = 0.25
ell_min = 0
ell_max = 5
j_fixed = 7

[decay]
tau = 0.125
theta = 1.0
p = 2

[tolerances]
decay_slope_max = -5.0

[probes]
run = kernel_decay, kernel_difference
"""


def test_kernel_probes_pass_in_2d(tmp_path, capsys):
    ini = write(tmp_path, KERNEL_PROBES_2D_INI)
    out = tmp_path / "reports"
    assert run_cli("run", ini, "--out", str(out)) == 0
    assert capsys.readouterr().out.split() == [
        "kernel_decay:", "pass", "kernel_difference:", "pass"
    ]
    rep = json.loads((out / "kernel_difference.json").read_text())
    assert rep["inputs"]["annuli"] == [0, 1, 2]


@pytest.mark.parametrize("suite", [None, "sparse"])
def test_readme_example_passes(tmp_path, suite):
    text = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    if suite is not None:
        text = text.replace("suite = kernels", f"suite = {suite}")
        assert f"suite = {suite}" in text
    ini = write(tmp_path, text)
    assert run_cli("run", ini, "--out", str(tmp_path / "reports")) == 0
