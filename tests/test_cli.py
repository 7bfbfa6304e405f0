"""CLI behavior: outputs, exit codes, JSON shapes, golden lines."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cauchylu import SYMBOLIC_T, det_closed, parse_value
from cauchylu.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- det -----------------------------------------------------------------


def test_det_numeric_golden(capsys):
    code, out, err = run_cli(capsys, "det", "--s", "2", "--t", "1/1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "32/525"
    assert lines[1] == "elimination oracle: 32/525 (match)"
    assert err == ""


def test_det_defaults_to_t_one(capsys):
    code, out, _ = run_cli(capsys, "det", "--s", "2")
    assert code == 0
    assert out.splitlines()[0] == "32/525"


def test_det_symbolic_round_trips(capsys):
    code, out, _ = run_cli(capsys, "det", "--s", "2", "--symbolic")
    assert code == 0
    assert parse_value(out.splitlines()[0]) == det_closed(2, SYMBOLIC_T)


def test_det_json(capsys):
    code, out, _ = run_cli(capsys, "det", "--s", "2", "--t", "1/1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "s": 2,
        "mode": "numeric",
        "t": "1",
        "determinant": "32/525",
        "oracle": "32/525",
        "match": True,
    }


@pytest.mark.parametrize("argv", [["--s", "13"], ["--s", "7", "--symbolic"]])
def test_det_reports_the_elimination_verdict_at_every_size(capsys, argv):
    code, out, err = run_cli(capsys, "det", *argv, "--json")
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert payload["oracle"] == payload["determinant"] and payload["match"] is True


def test_det_value_beyond_int_digit_limit_round_trips(capsys):
    # The s=40 determinant at t=37/11 has more digits than Python's default
    # int/str conversion limit of 4300; run under exactly that limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "det", "--s", "40", "--t", "37/11")
        assert code == 0, err
        text = out.splitlines()[0]
        assert len(text.split("/")[0]) > 4300
        assert parse_value(text) == det_closed(40, Fraction(37, 11))
    finally:
        sys.set_int_max_str_digits(limit)


def test_det_mismatch_text_exits_one(capsys, monkeypatch):
    from cauchylu import cli as cli_mod

    monkeypatch.setattr(cli_mod, "det_elimination", lambda m: Fraction(1, 7))
    code, out, err = run_cli(capsys, "det", "--s", "2", "--t", "1/1")
    assert code == 1
    assert out == "32/525\nelimination oracle: 1/7 (MISMATCH)\n"
    assert err == "error: closed form disagrees with elimination\n"


def test_det_mismatch_json_reports_match_false(capsys, monkeypatch):
    from cauchylu import cli as cli_mod

    monkeypatch.setattr(cli_mod, "det_elimination", lambda m: Fraction(1, 7))
    code, out, err = run_cli(capsys, "det", "--s", "2", "--t", "1/1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["match"] is False
    assert payload["oracle"] == "1/7"
    assert err == "error: closed form disagrees with elimination\n"


def test_det_singular_t_json_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "det", "--s", "1", "--t", "2", "--json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: vanishing denominator at (1, 1)")


def test_det_rejects_size_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["det", "--s", "0"])
    assert info.value.code == 2


def test_det_rejects_decimal_t(capsys):
    with pytest.raises(SystemExit) as info:
        main(["det", "--s", "2", "--t", "0.5"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["det", "lu"])
def test_t_in_non_ascii_digits_is_usage_error(capsys, command):
    # Arabic-Indic 1/3: int() reads every Unicode decimal digit, --t only 0-9.
    with pytest.raises(SystemExit) as info:
        main([command, "--s", "2", "--t", "١/٣"])
    assert info.value.code == 2
    assert "١/٣" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["det", "lu"])
def test_negative_t_may_follow_its_option(capsys, command):
    # argparse alone reads a separate -1/3 as an option and exits 2.
    separate = run_cli(capsys, command, "--s", "3", "--t", "-1/3")
    attached = run_cli(capsys, command, "--s", "3", "--t=-1/3")
    assert separate == attached
    assert separate[0] == 0 and separate[1]


@pytest.mark.parametrize("command", ["det", "lu"])
def test_negative_t_that_is_not_rational_is_usage_error(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--s", "3", "--t", "-1/x"])
    assert info.value.code == 2
    assert "-1/x" in capsys.readouterr().err


def test_det_t_and_symbolic_are_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["det", "--s", "2", "--t", "1/1", "--symbolic"])
    assert info.value.code == 2


def test_det_singular_t_exits_one_naming_position(capsys):
    code, _, err = run_cli(capsys, "det", "--s", "1", "--t", "2/1")
    assert code == 1
    assert "(1, 1)" in err


# -- lu ------------------------------------------------------------------


def test_lu_symbolic_golden(capsys):
    code, out, _ = run_cli(capsys, "lu", "--s", "1", "--symbolic")
    assert code == 0
    assert out == "L = [[1]]\nU = [[(-1)/(t^2 - 4)]]\n"


def test_lu_defaults_to_symbolic(capsys):
    _, explicit, _ = run_cli(capsys, "lu", "--s", "2", "--symbolic")
    _, default, _ = run_cli(capsys, "lu", "--s", "2")
    assert default == explicit


def test_lu_compare_match(capsys):
    code, out, _ = run_cli(capsys, "lu", "--s", "2", "--t", "1/1", "--compare")
    assert code == 0
    assert "compare: match" in out


def test_lu_compare_mismatch_exits_one(capsys, monkeypatch):
    from cauchylu import cli as cli_mod
    from cauchylu.matrix import ExactMatrix, LUFactors

    identity = ExactMatrix([[1, 0], [0, 1]])
    monkeypatch.setattr(cli_mod, "lu_doolittle", lambda m: LUFactors(identity, identity))
    code, out, err = run_cli(capsys, "lu", "--s", "2", "--t", "1/1", "--compare")
    assert code == 1
    assert out.splitlines()[-3:] == [
        "elimination L = [[1, 0], [0, 1]]",
        "elimination U = [[1, 0], [0, 1]]",
        "compare: MISMATCH",
    ]
    assert err == "error: closed-form factors disagree with elimination\n"


def test_lu_compare_singular_t(capsys):
    # t = 2/3 zeroes the (i=2, l=1) entry denominator: 4 - (4/9)*9 = 0
    code, _, err = run_cli(capsys, "lu", "--s", "2", "--t", "2/3", "--compare")
    assert code == 1
    assert "(2, 1)" in err


def test_lu_json_golden_file(capsys):
    code, out, _ = run_cli(capsys, "lu", "--s", "2", "--symbolic", "--json")
    assert code == 0
    golden = Path(__file__).parent / "data" / "lu_s2_symbolic.json"
    assert out == golden.read_text()


def test_lu_json_shape(capsys):
    code, out, _ = run_cli(capsys, "lu", "--s", "2", "--t", "1/1", "--compare", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == [["1", "0"], ["-3/5", "1"]]
    assert payload["U"] == [["1/3", "1/15"], ["0", "32/175"]]
    assert payload["compare"]["match"] is True
    assert payload["compare"]["L"] == payload["L"]


# -- chain ----------------------------------------------------------------


def test_chain_rows(capsys):
    code, out, _ = run_cli(capsys, "chain", "--s", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s=1: 1/3  1/3  1/3  1/3  1/3  1/3  [agree]"
    assert lines[1] == "s=2: 32/525  32/525  32/525  32/525  32/525  32/525  [agree]"


def test_chain_json(capsys):
    code, out, _ = run_cli(capsys, "chain", "--s", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert payload["rows"] == [{"s": 1, "values": ["1/3"] * 6, "equal": True}]


def test_chain_fault_injection_exits_nonzero(capsys, monkeypatch):
    from fractions import Fraction

    from cauchylu import closed_form

    monkeypatch.setattr(closed_form, "chain_e3", lambda s: Fraction(32, 3))
    code, out, err = run_cli(capsys, "chain", "--s", "1")
    assert code == 1
    assert "[DISAGREE]" in out
    assert "disagree" in err


# -- verify -----------------------------------------------------------------

FAST_VERIFY = [
    "--s-max-symbolic", "2",
    "--s-max-numeric", "3",
    "--s-max-factors-numeric", "3",
    "--samples", "2",
    "--gamma-max", "2",
    "--chain-max", "3",
    "--chain-elim-cap", "3",
]


def test_verify_seeded_json_is_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--seed", "42", "--json", *FAST_VERIFY)
    code2, out2, _ = run_cli(capsys, "verify", "--seed", "42", "--json", *FAST_VERIFY)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 42
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 6
    for report in payload["reports"]:
        assert list(report) == [
            "suite",
            "range",
            "mode",
            "t_samples",
            "discarded_t_samples",
            "passed",
            "skipped",
            "counterexample",
            "error",
        ]


def test_verify_human_output_lists_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", *FAST_VERIFY)
    assert code == 0
    assert out.count("[PASS]") == 6
    assert "suites passed or skipped" in out


def test_verify_skipped_suites_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--s-max-symbolic", "0", *FAST_VERIFY[2:])
    assert code == 0
    assert out.count("[SKIP]") == 2


def test_verify_failure_exits_one_with_empty_stderr(capsys, monkeypatch):
    from cauchylu import closed_form

    entry_U = closed_form.entry_U

    def entry_U_broken(j, l, t):
        value = entry_U(j, l, t)
        return value * 2 if (j, l) == (2, 2) else value

    monkeypatch.setattr(closed_form, "entry_U", entry_U_broken)
    code, out, err = run_cli(capsys, "verify", *FAST_VERIFY)
    assert code == 1
    assert err == ""
    assert "[FAIL] lu_product (symbolic; s_max=2)" in out
    assert "        counterexample {'s': 2, 'i': 2, 'l': 2}: " in out
    assert out.endswith("\n1/6 suites passed or skipped\n")


def test_verify_errored_suite_text_exits_one(capsys, monkeypatch):
    from cauchylu import verify as verify_mod

    # t = 2 zeroes the entry (1, 1) of every matrix, so no sample is accepted
    monkeypatch.setattr(verify_mod, "_sample_rational", lambda rng: Fraction(2))
    code, out, err = run_cli(capsys, "verify", *FAST_VERIFY)
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[1].startswith("[FAIL] lu_product (numeric; s_max=3)")
    assert lines[2] == "        error: no acceptable sample found in 100 attempts"
    assert lines.count("        error: no acceptable sample found in 100 attempts") == 2
    assert lines[-1] == "4/6 suites passed or skipped"


@pytest.mark.parametrize(
    "flag",
    [
        "--s-max-symbolic",
        "--s-max-numeric",
        "--s-max-factors-numeric",
        "--gamma-max",
        "--chain-max",
        "--chain-elim-cap",
    ],
)
def test_verify_negative_cap_is_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["verify", flag, "-1"])
    assert info.value.code == 2
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err
    args = build_parser().parse_args(["verify", flag, "0"])
    assert getattr(args, flag[2:].replace("-", "_")) == 0  # 0 is still accepted


@pytest.mark.parametrize(
    "flag, field, cap",
    [
        ("--s-max-symbolic", "s_max_symbolic", 16),
        ("--s-max-numeric", "s_max_numeric", 80),
        ("--s-max-factors-numeric", "s_max_factors_numeric", 80),
        ("--samples", "n_t_samples", 50),
        ("--gamma-max", "gamma_max", 32),
        ("--chain-max", "chain_max", 100),
        ("--chain-elim-cap", "chain_elimination_cap", 80),
    ],
)
def test_verify_flag_cap_is_accepted_and_cap_plus_one_rejected_before_arithmetic(
    capsys, monkeypatch, flag, field, cap
):
    from cauchylu import cli as cli_mod

    configs = []
    monkeypatch.setattr(cli_mod, "run_all", lambda cfg: configs.append(cfg) or [])
    code, out, err = run_cli(capsys, "verify", flag, str(cap + 1), "--json")
    assert (code, out, err) == (1, "", f"error: size {cap + 1} exceeds cap {cap}\n")
    assert configs == []
    code, out, err = run_cli(capsys, "verify", flag, str(cap), "--json")
    assert (code, err) == (0, "")
    assert [getattr(cfg, field) for cfg in configs] == [cap]


# -- bench -----------------------------------------------------------------


def test_bench_single_row(capsys):
    code, out, _ = run_cli(capsys, "bench", "--s", "1")
    assert code == 0
    assert len(out.splitlines()) == 2  # header + one row


def test_bench_json(capsys):
    code, out, _ = run_cli(capsys, "bench", "--s", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [row["s"] for row in payload["rows"]] == [1, 2]
    assert all(row["closed_ms"] >= 0 for row in payload["rows"])


def test_bench_mismatch_exits_before_any_timing(capsys, monkeypatch):
    from fractions import Fraction

    from cauchylu import cli as cli_mod

    monkeypatch.setattr(cli_mod, "det_closed", lambda s, t: Fraction(1, 7))
    code, out, err = run_cli(capsys, "bench", "--s", "3")
    assert code == 1
    assert out == ""
    assert "mismatch at s=1" in err


# -- --s and --t caps ---------------------------------------------------------


def _stub_arithmetic(monkeypatch):
    """Replace every computation the CLI calls by a recording constant."""
    from cauchylu import cli as cli_mod
    from cauchylu.closed_form import ChainValues
    from cauchylu.matrix import ExactMatrix, LUFactors

    calls = []
    one = ExactMatrix([[1]])

    def stub(name, make):
        def call(*args):
            calls.append(name)
            return make(*args)

        monkeypatch.setattr(cli_mod, name, call)

    for name in ("build_matrix", "build_L", "build_U"):
        stub(name, lambda *args: one)
    for name in ("det_closed", "det_elimination"):
        stub(name, lambda *args: Fraction(1))
    stub("lu_doolittle", lambda m: LUFactors(one, one))
    stub("chain_t1", lambda s: ChainValues(s, (Fraction(1),) * 6))
    return calls


def _numerator_digits(n):
    """--t text, in lowest terms, whose numerator has n digits."""
    return f"-{'9' * n}/2"


def _denominator_digits(n):
    """--t text, in lowest terms, whose denominator has n digits."""
    return f"7/{'9' * n}"


@pytest.mark.parametrize(
    "argv, cap, flag, value, what",
    [
        (["det", "--symbolic"], 16, "--s", str, "size"),
        (["det", "--t", "37/11"], 80, "--s", str, "size"),
        (["det"], 80, "--s", str, "size"),
        (["lu"], 16, "--s", str, "size"),
        (["lu", "--symbolic", "--compare"], 16, "--s", str, "size"),
        (["lu", "--t", "37/11", "--compare"], 80, "--s", str, "size"),
        (["chain"], 100, "--s", str, "size"),
        (["bench"], 30, "--s", str, "size"),
        (["det", "--s", "80"], 10, "--t", _numerator_digits, "t digits"),
        (["det", "--s", "2"], 10, "--t", _denominator_digits, "t digits"),
        (["lu", "--s", "80", "--compare"], 10, "--t", _denominator_digits, "t digits"),
        (["lu", "--s", "2"], 10, "--t", _numerator_digits, "t digits"),
    ],
)
def test_size_cap_is_accepted_and_cap_plus_one_rejected_before_arithmetic(
    capsys, monkeypatch, argv, cap, flag, value, what
):
    calls = _stub_arithmetic(monkeypatch)
    code, out, err = run_cli(capsys, *argv, flag, value(cap + 1), "--json")
    assert (code, out, err) == (1, "", f"error: {what} {cap + 1} exceeds cap {cap}\n")
    assert calls == []
    code, out, err = run_cli(capsys, *argv, flag, value(cap))
    assert (code, err) == (0, "")
    assert out and calls


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# -- import footprint ----------------------------------------------------------


def test_import_loads_no_dataclasses_inspect_or_statistics():
    # Every CLI run imports the package first.  dataclasses (which loads
    # inspect, ast, dis and tokenize) and statistics cost it ~14 ms; modules
    # loaded before the import, by site for example, do not count.
    code = (
        "import sys; before = set(sys.modules); import cauchylu, cauchylu.cli; "
        "print(sorted({'dataclasses', 'inspect', 'statistics'} & (set(sys.modules) - before)))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.stdout == "[]\n", child.stderr


def test_every_exported_name_resolves():
    import cauchylu

    missing = [name for name in cauchylu.__all__ if not hasattr(cauchylu, name)]
    assert missing == []
    assert len(set(cauchylu.__all__)) == len(cauchylu.__all__)
    assert "reciprocal_factorial" not in cauchylu.__all__
