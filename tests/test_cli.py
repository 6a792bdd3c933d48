import json
import os
import subprocess
import sys

import pytest

from uplab.cli import main

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("UPLAB_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "uplab", *args],
                          capture_output=True, text=True, env=env)


def test_mu_json():
    r = run_cli("mu", "--n", "7", "--q", "2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["mu"] == 7 and out["exact"] is True


def test_table_matches():
    r = run_cli("table", "--q", "2", "--primes", "7,17,23")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    assert [row["mu_lower"] for row in rows] == [7, 14, 19]
    assert all(row["status"] == "match" for row in rows)


def test_ms_all_one_word():
    r = run_cli("ms", "--q", "2", "--n", "7", "--word", "1111111")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert (out["weight"], out["transform_weight"]) == (7, 1)


@pytest.mark.parametrize("argv", [
    ("ms", "--q", "2", "--word", "1201000"),   # 2 is outside F_2, not a 1
    ("ms", "--q", "3", "--word", "1301000"),
    ("ms", "--q", "4", "--word", "1401"),
    ("ms", "--q", "2", "--word", ""),
    ("ms", "--q", "2", "--word", "1001"),      # gcd(4, 2) != 1
    ("ms", "--q", "3", "--word", "120"),
    ("up-scan", "--n", "9", "--q", "3"),
    ("up-scan", "--n", "0", "--q", "2"),
    ("up-scan", "--n", "-3", "--q", "2"),
    ("up-scan", "--n", "7", "--q", "2", "--mode", "random", "--trials", "0"),
    ("up-scan", "--n", "7", "--q", "2", "--mode", "random", "--trials", "-3"),
])
def test_transform_refusals_exit_2(argv):
    r = run_cli(*argv)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ")


def test_usage_error_exit_2():
    assert run_cli("bogus").returncode == 2
    assert run_cli("mu", "--n", "7").returncode == 2
    r = run_cli("factor", "--n", "9", "--q", "3")
    assert r.returncode == 2  # domain error: gcd != 1


def test_budget_partial_exit_3():
    r = run_cli("mu", "--n", "17", "--q", "2", "--budget", "40")
    assert r.returncode == 3
    out = json.loads(r.stdout)
    assert out["exact"] is False
    assert out["mu_lower"] <= 14 <= out["mu_upper"]


def test_up_scan_ok():
    r = run_cli("up-scan", "--n", "7", "--q", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["violations"] == 0


def test_determinism_byte_identical():
    a = run_cli("mu", "--n", "23", "--q", "2", "--divisors")
    b = run_cli("mu", "--n", "23", "--q", "2", "--divisors")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    a = run_cli("ramsey", "--kind", "ap", "--m", "4", "--n", "13")
    b = run_cli("ramsey", "--kind", "ap", "--m", "4", "--n", "13")
    assert a.stdout == b.stdout
    a = run_cli("asym", "--what", "construction", "--q", "2", "--p", "5", "--seed", "9")
    b = run_cli("asym", "--what", "construction", "--q", "2", "--p", "5", "--seed", "9")
    assert a.stdout == b.stdout


def test_formats(tmp_path):
    for fmt in ("json", "csv", "table"):
        r = run_cli("table", "--q", "2", "--primes", "7,17", "--format", fmt)
        assert r.returncode == 0 and r.stdout


def test_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache.jsonl"
    r1 = run_cli("mu", "--n", "17", "--q", "2", "--divisors", "--cache", str(cache))
    assert r1.returncode == 0 and cache.exists()
    lines = cache.read_text().strip().splitlines()
    assert lines and all(json.loads(ln)["exact"] for ln in lines)
    n_lines = len(lines)
    r2 = run_cli("mu", "--n", "17", "--q", "2", "--divisors", "--cache", str(cache))
    out2 = json.loads(r2.stdout)
    computed = [d for d in out2["per_divisor"] if d["work"] > 0]
    assert not computed  # every divisor either pruned or served from cache
    assert len(cache.read_text().strip().splitlines()) == n_lines  # idempotent puts
    # same final value either way
    assert out2["mu"] == json.loads(r1.stdout)["mu"]


def test_cache_keeps_mu_records_after_mindist(tmp_path):
    # both codes are pruned by their BCH bound in mu(17); entries that mindist
    # cached must not turn those brackets into exact records
    cache = str(tmp_path / "cache.jsonl")
    plain = run_cli("mu", "--n", "17", "--q", "2", "--divisors")
    for gen in ("1101001011", "11"):
        assert run_cli("mindist", "--n", "17", "--q", "2", "--gen", gen,
                       "--cache", cache).returncode == 0
    cached = run_cli("mu", "--n", "17", "--q", "2", "--divisors", "--cache", cache)
    assert (cached.returncode, cached.stdout) == (plain.returncode, plain.stdout)


def test_cache_corrupt_line_skipped(tmp_path):
    cache = tmp_path / "cache.jsonl"
    for text in ("this is not json\n",
                 '{"q": 2, "n": 7, "gen": "1101"}\n',  # JSON, but no distance fields
                 "[2, 7]\n"):
        cache.write_text(text)
        r = run_cli("mindist", "--n", "7", "--q", "2", "--gen", "1101",
                    "--cache", str(cache))
        assert r.returncode == 0
        assert "corrupt" in r.stderr
        assert json.loads(r.stdout)["d_lower"] == 3


def test_cache_env_var(tmp_path):
    r = run_cli("mindist", "--n", "7", "--q", "2", "--gen", "1101",
                env_extra={"UPLAB_CACHE_DIR": str(tmp_path)})
    assert r.returncode == 0
    assert (tmp_path / "uplab-cache.jsonl").exists()


def test_cache_flag_beats_env(tmp_path):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    flag_file = tmp_path / "flag.jsonl"
    r = run_cli("mindist", "--n", "7", "--q", "2", "--gen", "1101",
                "--cache", str(flag_file),
                env_extra={"UPLAB_CACHE_DIR": str(env_dir)})
    assert r.returncode == 0
    assert flag_file.exists()
    assert not (env_dir / "uplab-cache.jsonl").exists()


def test_mindist_unwritable_cache_warns_and_runs(tmp_path):
    r = run_cli("mindist", "--n", "7", "--q", "2", "--gen", "1101",
                "--cache", "/proc/definitely/not/writable/cache.jsonl")
    assert r.returncode == 0
    assert json.loads(r.stdout)["d_lower"] == 3


def test_strong_up_command():
    r = run_cli("strong-up", "--p", "23", "--q", "2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["branch"] == "bounded" and out["mu"] == 19


def test_factor_past_the_splitting_field_cap_exit_2(capsys):
    # factor prints the canonical root's labels, whose field F_{2^66} is refused
    assert main(["factor", "--n", "67", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "canonical root" in captured.err and "2^66" in captured.err and "2^64" in captured.err


def test_factor_refuses_a_non_prime_power_plainly(capsys):
    assert main(["factor", "--n", "5", "--q", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "6 is not a prime power" in captured.err
    assert "canonical root" not in captured.err


@pytest.mark.parametrize("command", ["factor", "mindist"])
def test_lengths_past_the_factoring_cap_exit_2(capsys, command):
    # Phi_n has degree about n: splitting it in F_q[x] takes about n^2 steps
    # (factor's canonical root would live in F_{2^13}, within the field cap)
    extra = ["--gen", "11"] if command == "mindist" else []
    assert main([command, "--n", "8191", "--q", "2", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "factoring cap" in captured.err


def test_ramsey_grid_command():
    r = run_cli("ramsey", "--kind", "grid", "--n", "7", "--delta", "3", "--s", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == 3


def test_asym_commands():
    r = run_cli("asym", "--what", "entropy", "--x", "0.25")
    assert abs(json.loads(r.stdout)["entropy"] - 0.8112781244591328) < 1e-12
    r = run_cli("asym", "--what", "plotkin", "--q", "4")
    assert json.loads(r.stdout)["cap"] == "3/4"
    r = run_cli("asym", "--what", "ball", "--n", "7", "--alpha", "0.5", "--q", "2")
    assert json.loads(r.stdout)["exact"] == "63"
    r = run_cli("asym", "--what", "ram-bound", "--p", "9", "--composite-ok")
    assert json.loads(r.stdout)["bound"] == 8
    r = run_cli("asym", "--what", "ram-bound", "--p", "7", "--q", "2")
    assert json.loads(r.stdout)["bound"] == 7


@pytest.mark.parametrize("p", ["0", "-3"])
def test_ram_bound_refuses_lengths_below_one(capsys, p):
    # the scan over an empty range of m once printed a null bound and exited 0
    assert main(["asym", "--what", "ram-bound", "--p", p, "--composite-ok"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n >= 1" in captured.err


def test_weak_up_command():
    r = run_cli("weak-up", "--q", "2", "--eps", "0.2", "--lam", "0.6", "--pmax", "31")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    hits = [row for row in rows if row["both"]]
    assert [row["p"] for row in hits] == [31]


@pytest.mark.parametrize("argv,flag", [
    (["ramsey", "--n", "9"], ["--budget", "100"]),
    (["ramsey", "--n", "9"], ["--seed", "1"]),
    (["ramsey", "--n", "9"], ["--workers", "2"]),
    (["strong-up", "--p", "7", "--q", "2"], ["--cache", "unused.jsonl"]),
    (["factor", "--n", "7", "--q", "2"], ["--budget", "100"]),
    (["ms", "--q", "2", "--word", "1101000"], ["--seed", "1"]),
    (["mu", "--n", "7", "--q", "2"], ["--seed", "1"]),
    (["weak-up", "--q", "2", "--eps", "0.2", "--lam", "0.6", "--pmax", "7"], ["--workers", "2"]),
    (["mu", "--n", "7", "--q", "2"], ["--workers", "2"]),
    (["mindist", "--n", "7", "--q", "2", "--gen", "1101"], ["--workers", "2"]),
    (["table", "--primes", "7"], ["--workers", "2"]),
    (["strong-up", "--p", "7", "--q", "2"], ["--workers", "2"]),
])
def test_unused_flags_are_usage_errors(argv, flag, capsys):
    # a flag the command would ignore is refused instead
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_weak_up_cache_writes_back(tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = ("weak-up", "--q", "2", "--eps", "0.2", "--lam", "0.6", "--pmax", "31")
    r1 = run_cli(*args, "--cache", str(cache))
    assert r1.returncode == 0
    recs = [json.loads(ln) for ln in cache.read_text().splitlines()]
    assert recs and all(rec["exact"] and rec["work"] > 0 for rec in recs)
    assert {rec["n"] for rec in recs} >= {7, 17, 23, 31}
    r2 = run_cli(*args, "--cache", str(cache))
    assert r2.stdout == r1.stdout
    assert len(cache.read_text().splitlines()) == len(recs)  # nothing new to store


def test_q_beyond_digit_strings_refused(tmp_path):
    for argv in (["mu", "--n", "7", "--q", "211"],
                 ["table", "--q", "211", "--primes", "7"],
                 ["asym", "--what", "construction", "--q", "37", "--p", "3"],
                 ["weak-up", "--q", "37", "--eps", "0.2", "--lam", "0.6", "--pmax", "7",
                  "--cache", str(tmp_path / "c.jsonl")]):
        r = run_cli(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert "q <= 36" in r.stderr
    assert not (tmp_path / "c.jsonl").exists()
    # without digit strings anywhere, q > 36 runs
    r = run_cli("weak-up", "--q", "37", "--eps", "0.2", "--lam", "0.6", "--pmax", "7")
    assert r.returncode == 0 and [row["p"] for row in json.loads(r.stdout)] == [2, 3, 5, 7]


# a command with modes reads some of its flags in each mode; the values
# below are the defaults
MODE_FLAGS = {
    "asym": {"--x": "0.5", "--q": "2", "--n": "7", "--p": "3", "--alpha": "0.5", "--R": "0.5",
             "--composite-ok": None, "--budget": str(1 << 28), "--seed": "0"},
    "ramsey": {"--m": "3", "--delta": "3", "--s": "0"},
    "up-scan": {"--trials": "10000", "--seed": "0"},
}
MODE_READS = [
    (["asym", "--what", "entropy"], ["--x"]),
    (["asym", "--what", "plotkin"], ["--q"]),
    (["asym", "--what", "ball"], ["--n", "--alpha", "--q"]),
    (["asym", "--what", "lambda-n"], ["--n", "--p", "--alpha", "--R"]),
    (["asym", "--what", "f-alpha"], ["--p", "--alpha", "--q", "--R"]),
    (["asym", "--what", "construction"], ["--q", "--p", "--R", "--seed", "--budget", "--alpha"]),
    (["asym", "--what", "ram-bound", "--composite-ok"], ["--p"]),
    (["asym", "--what", "ram-bound"], ["--p", "--q", "--budget"]),
    (["asym", "--what", "ram-grid-bound"], ["--p", "--q", "--budget"]),
    (["ramsey", "--kind", "ap", "--n", "9"], ["--m"]),
    (["ramsey", "--kind", "grid", "--n", "7"], ["--delta", "--s"]),
    (["up-scan", "--n", "7", "--q", "2", "--mode", "exhaustive"], []),
    (["up-scan", "--n", "7", "--q", "2", "--mode", "random"], ["--trials", "--seed"]),
]


def _flag_args(command, flag):
    value = MODE_FLAGS[command][flag]
    return [flag] if value is None else [flag, value]


@pytest.mark.parametrize("base,reads", MODE_READS, ids=lambda v: " ".join(v))
def test_mode_reads_its_flags(base, reads, capsys):
    # passing each flag the mode reads at its default changes no byte
    assert main(base) == 0
    plain = capsys.readouterr().out
    explicit = [a for f in reads for a in _flag_args(base[0], f)]
    assert main(base + explicit) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("base,flag", [
    (base, flag) for base, reads in MODE_READS for flag in MODE_FLAGS[base[0]]
    # --composite-ok switches ram-bound to another mode
    if flag not in reads and flag not in base and not (flag == "--composite-ok" and "ram-bound" in base)
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_mode_refuses_unread_flags(base, flag, capsys):
    assert main(base + _flag_args(base[0], flag)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


def test_mu_past_the_enumeration_cap_exit_2(capsys):
    assert main(["mu", "--n", "40", "--q", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "2^24" in captured.err


def test_table_bad_primes_exit_2(capsys):
    assert main(["table", "--primes", "7,x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--primes" in captured.err and "'7,x'" in captured.err


@pytest.mark.parametrize("n", ["0", "3"])
def test_ms_n_must_be_the_word_length(n, capsys):
    assert main(["ms", "--word", "12", "--q", "3", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"word length 2 != n = {n}" in captured.err


@pytest.mark.parametrize("gen", ["0", "00"])
def test_mindist_zero_generator_exit_2(gen, capsys):
    assert main(["mindist", "--n", "7", "--q", "2", "--gen", gen]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "zero polynomial" in captured.err


# every command that registers the shared --budget flag
BUDGET_COMMANDS = [
    ["mu", "--n", "7", "--q", "2"],
    ["mindist", "--n", "7", "--q", "2", "--gen", "1101"],
    ["table", "--primes", "7"],
    ["strong-up", "--p", "7", "--q", "2"],
    ["weak-up", "--q", "2", "--eps", "0.2", "--lam", "0.6", "--pmax", "7"],
    ["asym", "--what", "construction"],
    ["asym", "--what", "ram-bound", "--p", "7"],
    ["asym", "--what", "ram-grid-bound", "--p", "7"],
]


@pytest.mark.parametrize("argv", BUDGET_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("budget", ["-1", "-5", "x"])
def test_budget_refuses_non_budgets(argv, budget, capsys):
    assert main(argv + ["--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget" in captured.err


@pytest.mark.parametrize("argv", BUDGET_COMMANDS, ids=" ".join)
def test_budget_zero_is_accepted(argv, capsys):
    assert main(argv + ["--budget", "0"]) in (0, 3)
    assert capsys.readouterr().out


def test_budget_zero_means_zero(capsys):
    # mu and weak-up agree on p = 17 at budget 0: the bracket 13..14, exit 3
    assert main(["mu", "--n", "17", "--q", "2", "--budget", "0"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert (out["mu_lower"], out["mu_upper"], out["exact"]) == (13, 14, False)
    assert main(["weak-up", "--q", "2", "--eps", "0.2", "--lam", "0.6", "--pmax", "17",
                 "--budget", "0"]) == 3
    row = json.loads(capsys.readouterr().out)[-1]
    assert (row["p"], row["mu_lower"], row["mu_upper"], row["mu"]) == (17, 13, 14, None)


def test_budget_bounds_the_enumeration_only(capsys):
    # the deepening tier charges its k basis rows before it checks the budget
    assert main(["mindist", "--n", "7", "--q", "2", "--gen", "1101", "--budget", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["method"], out["exact"], out["work"]) == ("bz", True, 4)


def test_random_scan_past_the_factoring_cap_exit_2(capsys):
    # a weight over F_3 reads the factors of x^n - 1; over F_2 the bitmask gcd needs none
    assert main(["up-scan", "--n", "4097", "--q", "3", "--mode", "random", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "factoring cap 4096" in captured.err
    assert main(["up-scan", "--n", "4097", "--q", "2", "--mode", "random", "--trials", "1"]) == 0
