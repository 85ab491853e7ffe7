"""Rewrite the committed reports of every committed config.

    PYTHONPATH=src python tests/reports/write_reports.py

Runs each ``tests/reports/<config>.ini`` at its own seed, through the same
``cli.run_probes`` as ``lab run``, and keeps its report JSONs in
``tests/reports/<config>/`` (``summary.csv`` repeats them, and
``timings.csv`` is not deterministic).  ``test_cli.TestCommittedReports``
compares a fresh run with these files, so a change that moves a value
fails there until this script is rerun, and then shows as a diff.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from sparselab import cli  # noqa: E402

CONFIGS = sorted(path.stem for path in HERE.glob("*.ini"))


def write(name: str, out_dir: Path) -> None:
    """The reports of ``tests/reports/<name>.ini`` at its own seed."""
    cfg = cli.load_config(str(HERE / f"{name}.ini"))
    cli.run_probes(cfg, cli._checked_probes(cfg, None), out_dir, None)


def main() -> None:
    for name in CONFIGS:
        dest = HERE / name
        with tempfile.TemporaryDirectory() as tmp:
            write(name, Path(tmp))
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for path in sorted(Path(tmp).glob("*.json")):
                shutil.copyfile(path, dest / path.name)
        print(f"{dest}: {len(list(dest.glob('*.json')))} reports")


if __name__ == "__main__":
    main()
