"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every equality here is exact (zero tolerance); the stated runtime budgets
are asserted as hard bounds.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines on success).
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from cauchylu import closed_form
from cauchylu.closed_form import (
    build_L,
    build_U,
    chain_t1,
    det_closed,
    det_t1,
)
from cauchylu.cli import main
from cauchylu.combinatorics import factorial
from cauchylu.matrix import build_matrix, det_elimination, lu_doolittle
from cauchylu.ratfunc import SYMBOLIC_T
from cauchylu.verify import verify_chain, verify_factors_match, verify_lu_product


def _report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_determinant_agreement():
    started = time.perf_counter()
    ok = det_t1(1) == Fraction(1, 3) and det_t1(2) == Fraction(32, 525)
    for s in range(1, 13):
        closed = det_closed(s, 1)
        compact = det_t1(s)
        eliminated = det_elimination(build_matrix(s, 1))
        ok = ok and closed == compact == eliminated
    elapsed = time.perf_counter() - started
    _report(1, ok and elapsed < 5.0,
            f"det_closed = det_t1 = elimination exactly for s=1..12 ({elapsed:.2f}s < 5s)")


def test_criterion_2_symbolic_lu_product():
    started = time.perf_counter()
    ok = True
    for s in range(1, 7):
        product = build_L(s, SYMBOLIC_T) @ build_U(s, SYMBOLIC_T)
        ok = ok and product == build_matrix(s, SYMBOLIC_T)
    elapsed = time.perf_counter() - started
    _report(2, ok and elapsed < 60.0,
            f"L @ U = M as exact rational functions for s=1..6 ({elapsed:.2f}s < 60s)")


def test_criterion_3_factors_match_symbolic_and_sampled():
    ok = True
    for s in range(1, 7):
        factors = lu_doolittle(build_matrix(s, SYMBOLIC_T))
        ok = ok and build_L(s, SYMBOLIC_T) == factors.L
        ok = ok and build_U(s, SYMBOLIC_T) == factors.U
    report = verify_factors_match(
        10, "numeric", n_samples=20, rng=random.Random("acceptance:factors")
    )
    ok = ok and report.passed and len(report.t_samples) == 20
    _report(3, ok,
            "closed-form factors equal Doolittle factors, s=1..6 symbolic and "
            "s=1..10 at 20 seeded rational t samples")


def test_criterion_4_gamma_identities_grid():
    started = time.perf_counter()
    ok = True
    for i in range(1, 9):
        for j in range(1, 9):
            lhs, rhs = closed_form.gamma_identity_left(i, j)
            ok = ok and lhs == rhs
    for j in range(1, 9):
        for l in range(1, 9):
            lhs, rhs = closed_form.gamma_identity_right(j, l)
            ok = ok and lhs == rhs
    elapsed = time.perf_counter() - started
    _report(4, ok and elapsed < 30.0,
            f"both Gamma-product identities hold exactly for indices 1..8 ({elapsed:.2f}s < 30s)")


def test_criterion_5_chain_agreement_and_positivity():
    started = time.perf_counter()
    ok = True
    for s in range(1, 21):
        chain = chain_t1(s)
        ok = ok and chain.all_equal and chain.values[5] > 0
    elapsed = time.perf_counter() - started
    _report(5, ok and elapsed < 5.0,
            f"all six t=1 expressions agree and stay positive for s=1..20 ({elapsed:.2f}s < 5s)")


def test_criterion_6_fault_injection_is_detected(monkeypatch):
    original_entry_U = closed_form.entry_U

    def entry_U_perturbed(j, l, t):
        # 16^(j-1) -> 15^(j-1): first differs at j=2
        value = original_entry_U(j, l, t)
        if value == 0:
            return value
        return value * Fraction(15, 16) ** (j - 1)

    monkeypatch.setattr(closed_form, "entry_U", entry_U_perturbed)
    lu_report = verify_lu_product(2, "symbolic")
    ok = (
        not lu_report.passed
        and lu_report.counterexample is not None
        and lu_report.counterexample.indices["s"] == 2
    )
    monkeypatch.undo()

    def chain_e3_perturbed(s):
        # 32^(j-1) -> 32^j in the single-factorial form: at s=1 gives 32/3
        total = Fraction(4**s, factorial(s))
        for j in range(1, s + 1):
            total *= Fraction(
                32**j * factorial(2 * j - 1) ** 4,
                factorial(4 * j - 1) * factorial(4 * j - 2),
            )
        return total

    monkeypatch.setattr(closed_form, "chain_e3", chain_e3_perturbed)
    chain_report = verify_chain(1)
    ok = (
        ok
        and not chain_report.passed
        and chain_report.counterexample is not None
        and chain_report.counterexample.rhs == "32/3"
    )
    monkeypatch.undo()
    _report(6, ok,
            "perturbing one constant in entry_U or the chain's third expression "
            "fails the suite with a populated counterexample")


def test_criterion_7_verify_json_is_deterministic(capsys):
    code1 = main(["verify", "--seed", "42", "--json"])
    first = capsys.readouterr().out
    code2 = main(["verify", "--seed", "42", "--json"])
    second = capsys.readouterr().out
    golden = (Path(__file__).parent / "data" / "verify_seed42.json").read_text()
    ok = (code1 == 0 and code2 == 0 and first == second == golden
          and json.loads(first)["all_passed"])
    _report(7, ok, "verify --seed 42 --json is byte-identical across two runs and to the golden file")


def test_criterion_8_bench_asserts_equality_before_timing(capsys):
    code = main(["bench", "--s", "10", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = code == 0 and [row["s"] for row in payload["rows"]] == list(range(1, 11))
    _report(8, ok, "bench --s 10 passes its equality assertions and reports timings")
