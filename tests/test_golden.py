"""Byte-identity guard: CLI stdout against committed golden files.

Each file under ``tests/golden`` holds the exact stdout of one CLI call,
recorded before a change that must not alter output.  A performance change
is expected to leave every byte the same; a change that means to alter
output rewrites the files on purpose with

    PYTHONPATH=src python tests/test_golden.py --write

and the diff of ``tests/golden`` shows what changed.
"""

import sys
from pathlib import Path

import pytest

from partperm.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

SHAPES = (("3", "3"), ("5", "4"), ("4", "6"))

GOLDEN = {
    "verify-all": ("verify", "--suite", "all"),
    "faces-4-3": ("faces", "--m", "4", "--n", "3"),
    "faces-5-4": ("faces", "--m", "5", "--n", "4"),
    "faces-csv-5-3": ("faces", "--m", "5", "--n", "3", "--format", "csv"),
    "faces-6-2": ("faces", "--m", "6", "--n", "2"),
    "faces-3-6": ("faces", "--m", "3", "--n", "6"),
    "faces-csv-4-4": ("faces", "--m", "4", "--n", "4", "--format", "csv"),
    "verify-faces": ("verify", "--suite", "faces"),
    "fvector-6-4": ("fvector", "--m", "6", "--n", "4"),
    "table-volume-n": ("table", "--which", "volume-n"),
    "table-volume-N": ("table", "--which", "volume-N"),
    "verify-engines-5-6": ("verify", "--suite", "engines", "--max-m", "5", "--max-n", "6"),
    "verify-engines-12-14": (
        "verify", "--suite", "engines", "--max-m", "12", "--max-n", "14"),
    "ehrhart-eval4-5-6": (
        "ehrhart", "--m", "5", "--n", "6", "--all-methods", "--eval", "4"),
    "volume-oracle-5-1": ("volume", "--m", "5", "--n", "1", "--method", "oracle"),
    "volume-7-8": ("volume", "--m", "7", "--n", "8", "--all-methods"),
    "volume-13-20": ("volume", "--m", "13", "--n", "20", "--all-methods"),
    "table-volume-n-8": ("table", "--which", "volume-n", "--max-m", "8"),
    "ehrhart-12-12": ("ehrhart", "--m", "12", "--n", "12", "--all-methods"),
    "volume-12-11": ("volume", "--m", "12", "--n", "11", "--all-methods"),
    "table-volume-N-12": ("table", "--which", "volume-N", "--max-m", "12"),
    "verify-appendix": ("verify", "--suite", "appendix"),
    "volume-20-25": ("volume", "--m", "20", "--n", "25", "--all-methods"),
    "help": ("--help",),
    "ehrhart-help": ("ehrhart", "--help"),
}
# One method's output, at the default pick and by --method, in every format.
for _cmd, _m, _n, _formats in (("volume", "4", "6", ("json", "csv")),
                                ("ehrhart", "4", "3", ("json", "csv", "tex")),
                                ("hpoly", "4", "3", ("json", "csv", "tex"))):
    for _format in _formats:
        GOLDEN[f"{_cmd}-default-{_format}-{_m}-{_n}"] = (
            _cmd, "--m", _m, "--n", _n, "--format", _format)
GOLDEN["volume-default-json-5-2"] = ("volume", "--m", "5", "--n", "2")
GOLDEN["ehrhart-small_n-eval-5-3"] = (
    "ehrhart", "--m", "5", "--n", "3", "--method", "small_n", "--eval", "3")
for _m, _n in SHAPES:
    for _cmd in ("hpoly", "volume", "ehrhart"):
        GOLDEN[f"{_cmd}-{_m}-{_n}"] = (_cmd, "--m", _m, "--n", _n, "--all-methods")
    GOLDEN[f"ehrhart-eval-{_m}-{_n}"] = (
        "ehrhart", "--m", _m, "--n", _n, "--all-methods", "--eval", "3")


def _stdout(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(capsys, name):
    want = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert _stdout(capsys, GOLDEN[name]).encode() == want


def _write_all():
    import io
    from contextlib import redirect_stdout

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(GOLDEN.items()):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN_DIR / f"{name}.out").write_bytes(buf.getvalue().encode())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    _write_all()
