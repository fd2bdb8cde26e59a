"""Byte-for-byte pins of CLI stdout and of p-adic-s zeta reports.

Refactors of the zeta kernel and the ladder operators must leave every
printed digit alone.  The expected outputs live in tests/golden/ and
were recorded from the code as it stood before those refactors; rerun

    PYTHONPATH=src python tests/test_golden.py

only when an output is meant to change, and review the diff.
"""

import contextlib
import io
import json
import os

import pytest

from padicosc.cli import main
from padicosc.galois import Branch
from padicosc.padics import PadicNumber
from padicosc.serialization import dumps, zeta_report_to_dict
from padicosc.zeta import zeta_measure

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SERIES_FILE = os.path.join(GOLDEN, "series_tail.txt")
SAMPLES_FILE = os.path.join(GOLDEN, "samples.txt")
CLI_GOLDEN = os.path.join(GOLDEN, "cli_stdout.json")
ZETA_GOLDEN = os.path.join(GOLDEN, "zeta_padic_s.json")

# "{series}" stands for the fixed series file (p = 5, M = 5, tail 9),
# "{samples}" for the fixed samples file (p = 5, M = 8, valuations -2..2
# and one exact zero)
COMMANDS = (
    "--p 2 --precision 32 zeta-interp 2",
    "--p 5 --m 64 commutator-check --trials 50 --seed 7",
    "--p 5 orbit 2",
    "--p 7 orbit 0",
    "--p 13 --m 8 orbit 4",
    "--p 7 --kappa0 2 --precision 20 zeta-measure 8 --levels 3..5",
    "--p 2 --precision 20 zeta-measure 4 --levels 2..8",
    "--p 3 --regulator 5 zeta-measure 6 --levels 1..4",
    "--p 3 --precision 4 zeta-measure 3188646",
    "--p 5 teichmuller 2",
    "--p 7 --kappa0 2 zeta-table 30",
    "apply raising {series}",
    "apply lowering {series}",
    "apply hamiltonian {series}",
    "--m 6 kernel raising",
    "--m 6 kernel lowering",
    "--m 6 kernel hamiltonian",
    "mahler-expand {samples}",
    "vdp-expand {samples}",
)
CLI_CASES = tuple("--output %s %s" % (out, cmd)
                  for cmd in COMMANDS for out in ("json", "text"))

# (p, kappa0, s as num/den with its digits, level, regulator, precision)
ZETA_CASES = (
    (2, 0, (1, 3, 40), 4, None, 10),
    (3, 0, (-7, 5, 40), 1, 5, 8),
    (5, 2, (13, 7, 40), 3, None, 10),
    (7, 4, (10, 3, 40), 2, 3, 6),
)


def _zeta_key(case):
    p, kappa0, (num, den, n), level, r, prec = case
    return "p=%d kappa0=%d s=%d/%d@%d level=%d r=%s precision=%d" % (
        p, kappa0, num, den, n, level, r, prec)


def cli_stdout(case: str) -> str:
    argv = (case.replace("{series}", SERIES_FILE)
            .replace("{samples}", SAMPLES_FILE).split())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, case
    return buf.getvalue()


def zeta_report(case) -> str:
    p, kappa0, (num, den, n), level, r, prec = case
    s = PadicNumber.from_rational(num, den, p, n)
    ev = zeta_measure(s, Branch(p, kappa0), regulator=r, level=level,
                      precision=prec)
    return dumps(zeta_report_to_dict(ev))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_stdout_is_pinned(case):
    assert cli_stdout(case) == _load(CLI_GOLDEN)[case]


@pytest.mark.parametrize("case", ZETA_CASES, ids=_zeta_key)
def test_padic_s_zeta_report_is_pinned(case):
    assert zeta_report(case) == _load(ZETA_GOLDEN)[_zeta_key(case)]


def _write(path, table):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _write(CLI_GOLDEN, {case: cli_stdout(case) for case in CLI_CASES})
    _write(ZETA_GOLDEN, {_zeta_key(c): zeta_report(c) for c in ZETA_CASES})
