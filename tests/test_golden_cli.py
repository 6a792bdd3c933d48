"""Golden CLI transcript: the stdout bytes and exit code of a fixed set of
commands, run in-process and compared with tests/golden_cli.json.

This is the byte-identical fixed point of the CLI.  A change that alters one
of these outputs on purpose (say, the `work` of a divisor) regenerates the
file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from uplab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

COMMANDS = [
    ["table"],
    ["table", "--primes", "71,73"],
    ["table", "--primes", "7,17", "--format", "csv"],
    ["mu", "--n", "17", "--q", "2", "--divisors"],
    ["mu", "--n", "23", "--q", "2", "--divisors"],
    ["mu", "--n", "13", "--q", "3", "--divisors"],
    ["mu", "--n", "5", "--q", "4", "--divisors"],
    ["mu", "--n", "8", "--q", "9", "--divisors"],
    ["mu", "--n", "17", "--q", "2", "--budget", "40"],
    ["mu", "--n", "12", "--q", "5", "--format", "table"],
    ["mindist", "--n", "17", "--q", "2", "--gen", "111010111"],
    ["mindist", "--n", "31", "--q", "2", "--gen", "100101"],
    ["mindist", "--n", "31", "--q", "2", "--gen", "10001110001"],
    ["mindist", "--n", "43", "--q", "2", "--gen", "110100010001011"],
    ["mindist", "--n", "13", "--q", "3", "--gen", "2111"],
    ["mindist", "--n", "26", "--q", "3", "--gen", "10022211"],
    ["mindist", "--n", "23", "--q", "2", "--gen", "110001110101", "--budget", "100"],
    # a budget bracket (exit 3) whose lower bound the weight congruences raise
    ["mindist", "--n", "47", "--q", "2", "--gen", "100011000111011011101111", "--budget", "100"],
    ["ms", "--q", "2", "--n", "7", "--word", "1111111"],
    ["ms", "--q", "2", "--word", "110100000000000"],
    ["ms", "--q", "3", "--word", "12010000"],
    ["ms", "--q", "4", "--word", "13201"],
    ["ms", "--q", "9", "--word", "18300000"],
    ["ms", "--q", "2", "--word", "1001"],
    ["up-scan", "--n", "9", "--q", "2"],
    ["up-scan", "--n", "7", "--q", "3"],
    ["up-scan", "--n", "5", "--q", "4"],
    ["up-scan", "--n", "4", "--q", "9"],
    ["up-scan", "--n", "15", "--q", "2", "--mode", "random", "--trials", "300", "--seed", "3"],
    ["up-scan", "--n", "13", "--q", "3", "--mode", "random", "--trials", "100", "--seed", "5"],
    ["factor", "--n", "21", "--q", "4"],
    ["factor", "--n", "31", "--q", "2"],
    ["weak-up", "--q", "2", "--eps", "0.2", "--lam", "0.6", "--pmax", "31"],
    ["strong-up", "--p", "23", "--q", "2"],
    ["strong-up", "--p", "13", "--q", "3"],
    ["strong-up", "--p", "67", "--q", "2"],
    ["ramsey", "--kind", "ap", "--m", "4", "--n", "13"],
    ["ramsey", "--kind", "grid", "--delta", "3", "--s", "1", "--n", "7"],
    ["asym", "--what", "construction", "--q", "2", "--p", "5", "--seed", "9"],
    ["asym", "--what", "construction", "--q", "3", "--p", "3", "--R", "0.4"],
    ["asym", "--what", "f-alpha", "--p", "31", "--alpha", "0.4"],
    ["asym", "--what", "entropy", "--x", "0.25"],
    ["asym", "--what", "ram-bound", "--p", "9", "--composite-ok"],
    # F_{2^20}, an untabled binary field: the labels and the transform values
    ["factor", "--n", "41", "--q", "2"],
    ["ms", "--q", "2", "--word", "11010000000000000000000000000000000000001"],
    # F_{5^6}, of order below 2^16: the one convolve-and-fold product
    ["ms", "--q", "5", "--word", "1203401"],
    # lattices whose order within one dimension matters: 127 binary divisors,
    # and 511 over F_4, whose products go through the field's tables
    ["mu", "--n", "31", "--q", "2", "--divisors"],
    ["mu", "--n", "21", "--q", "4", "--divisors"],
]


def run(argv):
    """Run the CLI in-process; return (stdout, exit code)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return out.getvalue(), code


def _load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_commands():
    assert [rec["argv"] for rec in _load()] == COMMANDS


# the regeneration below runs this module before the file exists
@pytest.mark.parametrize("rec", _load() if os.path.exists(GOLDEN) else [], ids=lambda rec: " ".join(rec["argv"]))
def test_golden_cli(rec, monkeypatch):
    monkeypatch.delenv("UPLAB_CACHE_DIR", raising=False)
    assert run(rec["argv"]) == (rec["stdout"], rec["exit"])


@pytest.mark.slow
def test_mu_127_divisors_transcript(monkeypatch):
    # a regression oracle for the lattice walk of mu and the expansion of its
    # 524,287 per-divisor records, not a pin of mu(127, 2): the stdout hashes
    # as it did when mu built a code for every divisor, with the work and the
    # target brackets that the weight congruences give (about 30 s)
    monkeypatch.delenv("UPLAB_CACHE_DIR", raising=False)
    stdout, code = run(["mu", "--n", "127", "--q", "2", "--divisors"])
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        "875ebdfe35684ac9a60ae3c48b8456a61366241a218dbdd1150da5da492b71c4"


if __name__ == "__main__":
    os.environ.pop("UPLAB_CACHE_DIR", None)
    recs = []
    for argv in COMMANDS:
        stdout, code = run(argv)
        recs.append({"argv": argv, "stdout": stdout, "exit": code})
    with open(GOLDEN, "w") as fh:
        json.dump(recs, fh, indent=1)
        fh.write("\n")
