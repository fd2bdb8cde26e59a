"""End-to-end command tests: frozen outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import padicosc
from padicosc import cli
from padicosc.cli import SETTINGS, main
from padicosc.padics import PadicNumber
from padicosc.serialization import (
    format_series_file,
    orbit_from_dict,
    padic_from_dict,
    parse_series_file,
    series_from_dict,
)
from padicosc.series import basis_vector
from value_helpers import format_samples_file


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PADICOSC_CONFIG", raising=False)
    monkeypatch.delenv("PADICOSC_CI", raising=False)


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *args):
    rc, out, err = run(capsys, *args)
    assert rc == 0, err
    return json.loads(out)


# -- frozen examples ----------------------------------------------------


def test_zeta_interp_example(capsys):
    report = run_json(capsys, "--p", "2", "--precision", "32",
                      "zeta-interp", "2")
    assert report["schema_version"] == 1
    assert report["s"] == -1 and report["path"] == "interpolation"
    value = padic_from_dict(report["value"])
    assert value.valuation == -2
    assert value == PadicNumber.from_rational(1, 12, 2, 32)


def test_commutator_check_example(capsys):
    args = ("--p", "5", "--m", "64", "commutator-check",
            "--trials", "50", "--seed", "7")
    report = run_json(capsys, *args)
    assert report["message"] == "defect 0 on indices 0..62 for 50/50 trials"
    assert report["passes"] == 50 and report["seed"] == 7

    rc, out, _ = run(capsys, "--output", "text", *args)
    assert rc == 0
    assert out == "defect 0 on indices 0..62 for 50/50 trials\n"


def test_orbit_example(capsys):
    report = run_json(capsys, "--p", "5", "orbit", "2")
    assert report["period"] == 2 and report["kappa0"] == 2
    p, kappa0, period, mats = orbit_from_dict(report)
    assert (p, kappa0, period, len(mats)) == (5, 2, 2, 4)


# -- the other subcommands ---------------------------------------------


def test_teichmuller_subcommand(capsys):
    report = run_json(capsys, "--p", "7", "teichmuller", "3")
    omega = padic_from_dict(report["omega"])
    ang = padic_from_dict(report["angle"])
    assert omega.residue(1) == 3 and ang.residue(1) == 1
    assert (omega**6 - PadicNumber.one(7, 32)).is_zero

    rc, _, err = run(capsys, "--p", "7", "teichmuller", "14")
    assert rc == 1 and err.startswith("domain error")


def test_expand_subcommands(capsys, tmp_path):
    samples = [PadicNumber.from_int(i * i, 5, 12) for i in range(4)]
    path = tmp_path / "squares.samples"
    path.write_text(format_samples_file(samples, 5))

    report = run_json(capsys, "mahler-expand", str(path))
    assert report["basis"] == "mahler" and report["M"] == 4
    f = series_from_dict(report)
    assert f.coefficients[2].to_fraction() == 2
    assert f.coefficients[3].is_zero

    report = run_json(capsys, "vdp-expand", str(path))
    assert report["basis"] == "vdp" and report["M"] == 4


def test_apply_subcommand_and_text_round_trip(capsys, tmp_path):
    f = basis_vector(5, 1, truncation=4, precision=12)
    path = tmp_path / "e1.series"
    path.write_text(format_series_file(f))

    report = run_json(capsys, "apply", "raising", str(path))
    g = series_from_dict(report)
    assert g.coefficients[2].to_fraction() == 2
    assert all(g.coefficients[i].is_zero for i in (0, 1, 3))

    rc, out, _ = run(capsys, "--output", "text", "apply", "raising", str(path))
    assert rc == 0
    assert parse_series_file(out) == g


def test_apply_rejects_vdp_series(capsys, tmp_path):
    samples = [PadicNumber.from_int(i, 5, 8) for i in range(4)]
    path = tmp_path / "f.samples"
    path.write_text(format_samples_file(samples, 5))
    vdp = run_json(capsys, "vdp-expand", str(path))
    series_path = tmp_path / "f.series"
    lines = [json.dumps({"basis": "vdp", "p": 5, "M": 4,
                         "tail_bound_exponent": None})]
    lines += [json.dumps(c) for c in vdp["coefficients"]]
    series_path.write_text("\n".join(lines) + "\n")

    rc, _, err = run(capsys, "apply", "raising", str(series_path))
    assert rc == 1 and err.startswith("domain error") and "vdp" in err


def test_kernel_subcommand(capsys):
    report = run_json(capsys, "--p", "5", "--m", "6", "kernel", "lowering")
    assert report["dimension"] == 1
    vec = series_from_dict(report["basis"][0])
    assert vec.coefficients[0].to_fraction() == 1
    assert all(c.is_zero for c in vec.coefficients[1:])

    report = run_json(capsys, "--p", "5", "--m", "6", "kernel", "hamiltonian")
    assert report["dimension"] == 1
    vec = series_from_dict(report["basis"][0])
    assert vec.coefficients[0].to_fraction() == 1


def test_zeta_measure_levels(capsys):
    report = run_json(capsys, "--p", "5", "--kappa0", "2",
                      "zeta-measure", "2", "--levels", "3..4")
    evals = report["evaluations"]
    assert [ev["level"] for ev in evals] == [3, 4]
    target = PadicNumber.from_rational(1, 3, 5, 20)
    for ev in evals:
        got = padic_from_dict(ev["value"])
        diff = got - target.truncated_to(got.abs_precision)
        assert diff.is_zero or diff.valuation >= ev["error_bound_exponent"]


def test_zeta_table(capsys):
    report = run_json(capsys, "--p", "5", "--kappa0", "2", "zeta-table", "10")
    ks = [row["k"] for row in report["rows"]]
    assert ks == [2, 6, 10]
    assert report["rows"][0]["s"] == -1
    first = padic_from_dict(report["rows"][0]["value"])
    assert first == PadicNumber.from_rational(1, 3, 5, 32)

    report = run_json(capsys, "--p", "5", "--kappa0", "2", "zeta-table", "1")
    assert report["rows"] == []


def test_zeta_table_rejects_kmax_below_one(capsys):
    for kmax in ("0", "-3"):
        rc, out, err = run(capsys, "zeta-table", kmax)
        assert rc == 1 and out == ""
        assert err.startswith("usage error") and "kmax" in err


# -- exit codes and diagnostics ----------------------------------------


def test_unknown_subcommand_exit_1(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1 and err.startswith("usage error") and "invalid choice" in err


def test_config_validation_exit_1(capsys):
    cases = [
        (("--p", "6", "zeta-interp", "2"), "not prime"),
        (("--precision", "2", "zeta-interp", "2"), "precision"),
        (("--p", "5", "--kappa0", "9", "zeta-interp", "2"), "kappa0"),
        (("--p", "5", "--regulator", "10", "zeta-interp", "2"), "regulator"),
        (("--regulator", "1", "zeta-table", "8"), "invalid regulator"),
        (("--regulator", "-1", "--p", "5", "orbit", "2"), "invalid regulator"),
    ]
    for args, needle in cases:
        rc, _, err = run(capsys, *args)
        assert rc == 1 and err.startswith("config error") and needle in err


def test_malformed_input_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.series"
    bad.write_text("this is not a series\n")
    rc, _, err = run(capsys, "apply", "raising", str(bad))
    assert rc == 1 and err.startswith("input format error")

    rc, _, err = run(capsys, "apply", "raising", str(tmp_path / "missing"))
    assert rc == 1 and err.startswith("input format error")

    rc, _, err = run(capsys, "zeta-measure", "2", "--levels", "7..3")
    assert rc == 1 and err.startswith("usage error")


def test_pole_exit_1(capsys):
    rc, _, err = run(capsys, "--p", "5", "--kappa0", "0", "zeta-measure", "0")
    assert rc == 1 and err.startswith("domain error (pole)")


def test_exit_table_resolves_each_class_to_its_row(capsys, monkeypatch):
    # a base class listed above a subclass would shadow the subclass's
    # row; no real failure reaches the last row, PadicError -> "error"
    for cls, label, status in cli._EXITS:
        def fail(ns, cfg, exc=cls("boom")):
            raise exc
        monkeypatch.setattr(cli, "_cmd_kernel", fail)
        rc, out, err = run(capsys, "kernel", "raising")
        assert (rc, out, err) == (status, "", "%s: boom\n" % label), cls


def test_precision_exhaustion_exit_2(capsys, monkeypatch):
    # no argv exhausts precision now that zeta-measure sums mod p^level
    # (--p 3 --precision 4 zeta-measure 3188646 certifies its value), so
    # zeta-measure gets s as a p-adic number of one digit: at level 5 the
    # exponent of <a>^(-s) needs four digits and the prefactor, made mod
    # 3^(5 + 1) with v(<2> - 1) = 1, five; the plan's one error reaches the
    # exit table
    def one_digit_s(s, branch, **kwargs):
        short = PadicNumber.from_int(s, branch.prime, 1)
        return cli_zeta_measure(short, branch, **kwargs)

    cli_zeta_measure = cli.zeta_measure
    monkeypatch.setattr(cli, "zeta_measure", one_digit_s)
    rc, _, err = run(capsys, "--p", "3", "zeta-measure", "2")
    assert rc == 2 and err == (
        "precision exhausted: zeta_measure needs s mod 3**5, "
        "but s is known mod 3**1\n")


def test_regulator_plus_minus_one_exit_1(capsys):
    # the prefactor is 0 (r = -1) or the measure is 0 (r = 1) at any
    # precision, so the setting is rejected, not precision exhaustion
    for r in ("1", "-1"):
        rc, _, err = run(capsys, "--regulator", r, "zeta-measure", "2")
        assert rc == 1 and err.startswith("config error")
        assert "invalid regulator" in err


def test_odd_branch_gated_exit_1(capsys):
    rc, _, err = run(capsys, "--p", "5", "--kappa0", "3", "zeta-interp", "3")
    assert rc == 1 and err.startswith("domain error") and "even" in err


def test_orbit_argument_leaves_global_kappa0_alone(capsys):
    # the positional is the orbit's branch; --kappa0 is still checked
    rc, _, err = run(capsys, "--p", "5", "--kappa0", "7", "orbit", "2")
    assert rc == 1 and err.startswith("config error") and "kappa0" in err

    rc, _, err = run(capsys, "--p", "2", "orbit", "1")
    assert rc == 1 and err.startswith("domain error")
    assert "kappa0 must lie in [0, 0]" in err


def test_closed_stdout_exit_1_without_traceback():
    # a real process whose stdout pipe has no reader before it writes
    src = os.path.dirname(os.path.dirname(padicosc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PADICOSC_CONFIG", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "padicosc.cli", "--p", "5", "orbit", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: stdout closed early\n"


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # every CLI process pays for what importing padicosc.cli loads; run
    # without site, as the benchmark's CLI children do
    src = os.path.dirname(os.path.dirname(padicosc.__file__))
    heavy = ("dataclasses", "typing", "inspect", "threading")
    code = ("import padicosc.cli, sys; "
            "print(' '.join(m for m in %r if m in sys.modules))" % (heavy,))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_readme_quick_tour_runs():
    # the README's python block, run as a reader would paste it, so the
    # tour cannot drift from the API
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```")[0]
    assert "zeta_measure" in code
    src = os.path.dirname(os.path.dirname(padicosc.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and "subcommand" in out


# -- determinism and configuration -------------------------------------


def test_byte_identical_given_config_and_seed(capsys):
    args = ("--p", "3", "--m", "8", "--seed", "11",
            "commutator-check", "--trials", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2 and out1.endswith("\n")

    args = ("--p", "2", "--precision", "16", "zeta-interp", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_config_file_and_env_override(capsys, tmp_path, monkeypatch):
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps({"p": 7, "precision": 16}))
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps({"p": 11}))

    report = run_json(capsys, "--config", str(cfg_a), "teichmuller", "3")
    assert report["p"] == 7 and report["omega"]["precision"] == 16

    # the environment variable wins over --config
    monkeypatch.setenv("PADICOSC_CONFIG", str(cfg_a))
    report = run_json(capsys, "--config", str(cfg_b), "teichmuller", "3")
    assert report["p"] == 7

    # explicit flags win over the config file
    report = run_json(capsys, "--p", "5", "teichmuller", "3")
    assert report["p"] == 5 and report["omega"]["precision"] == 16


# each global setting: a non-default value and a command whose stdout shows it
SETTING_CASES = {
    "p": (7, ("teichmuller", "3")),
    "precision": (16, ("teichmuller", "3")),
    "m": (6, ("kernel", "lowering")),
    "kappa0": (2, ("zeta-table", "10")),
    "level": (3, ("zeta-measure", "2")),
    "regulator": (3, ("zeta-measure", "2")),
    "output": ("text", ("orbit", "2")),
    "seed": (11, ("--p", "3", "commutator-check", "--trials", "2")),
}


def test_settings_are_pinned():
    assert list(SETTINGS) == list(SETTING_CASES)


@pytest.mark.parametrize("name", list(SETTINGS))
def test_setting_as_flag_or_config_key(capsys, tmp_path, name):
    value, args = SETTING_CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}))
    rc, default_out, err = run(capsys, *args)
    assert rc == 0, err
    rc, flag_out, err = run(capsys, "--" + name, str(value), *args)
    assert rc == 0, err
    rc, file_out, err = run(capsys, "--config", str(cfg), *args)
    assert rc == 0, err
    assert flag_out == file_out != default_out


def test_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "--config", str(bad), "zeta-interp", "2")
    assert rc == 1 and err.startswith("config error")

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"prime": 7}))
    rc, _, err = run(capsys, "--config", str(unknown), "zeta-interp", "2")
    assert rc == 1 and "unknown keys" in err

    rc, _, err = run(capsys, "--config", str(tmp_path / "nope"), "zeta-interp", "2")
    assert rc == 1 and err.startswith("config error")


def test_ci_mode_requires_explicit_seed(capsys, monkeypatch):
    monkeypatch.setenv("PADICOSC_CI", "1")
    rc, _, err = run(capsys, "--p", "3", "commutator-check", "--trials", "2")
    assert rc == 1 and err.startswith("config error") and "seed" in err

    report = run_json(capsys, "--p", "3", "commutator-check",
                      "--trials", "2", "--seed", "4")
    assert report["passes"] == 2
