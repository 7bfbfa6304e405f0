"""Verification-suite behavior: reports, sampling, determinism, and the
fault-injection meta-tests (a checker that cannot fail is untrustworthy)."""

import json
import random
from fractions import Fraction
from itertools import islice

import pytest

from cauchylu import closed_form
from cauchylu.closed_form import ChainValues
from cauchylu.combinatorics import binomial, factorial
from cauchylu.errors import DomainError, RetriesExhausted
from cauchylu.formats import serialize_value
from cauchylu.matrix import ExactMatrix, build_matrix, lu_doolittle
from cauchylu.ratfunc import SYMBOLIC_T
from cauchylu.verify import (
    VerifyConfig,
    run_all,
    verify_chain,
    verify_factors_match,
    verify_gamma_identities,
    verify_lu_product,
)
import cauchylu.matrix as matrix_mod
import cauchylu.verify as verify_mod


# -- passing runs ---------------------------------------------------------


def test_lu_product_symbolic_small():
    report = verify_lu_product(2, "symbolic")
    assert report.passed and not report.skipped
    assert report.counterexample is None
    assert report.mode == "symbolic"
    assert report.t_samples == []


def test_lu_product_numeric_trivial_size():
    report = verify_lu_product(1, "numeric", t_samples=[Fraction(1)])
    assert report.passed
    assert report.t_samples == ["1"]


def test_factors_match_symbolic_small():
    report = verify_factors_match(2, "symbolic")
    assert report.passed


def test_factors_match_numeric_resamples_singular_values():
    # t = 2 is singular (it zeroes an entry denominator); it must be
    # discarded, recorded, and replaced by a fresh draw.
    rng = random.Random("fixed")
    report = verify_factors_match(
        3, "numeric", t_samples=[Fraction(2), Fraction(1)], rng=rng
    )
    assert report.passed
    assert "2" in report.discarded_t_samples
    assert len(report.t_samples) == 2
    assert "1" in report.t_samples


@pytest.mark.parametrize(
    "seed, accepted",
    [
        pytest.param("fixed", ["1", "7/34"], id="given-rng"),
        pytest.param(None, ["1", "5/16"], id="default-rng"),
    ],
)
def test_numeric_sample_stream_is_pinned(seed, accepted):
    # The provided samples come first, in order; the singular t = 2 is
    # discarded, and the one draw that replaces it comes last.  With no rng
    # the draws come from Random("resample").
    rng = None if seed is None else random.Random(seed)
    report = verify_factors_match(
        3, "numeric", t_samples=[Fraction(2), Fraction(1)], rng=rng
    )
    assert report.t_samples == accepted
    assert report.discarded_t_samples == ["2"]


def test_factors_match_numeric_resamples_zero_pivot():
    # t = 0 leaves every entry finite but collapses rank: elimination hits a
    # zero pivot at s = 2, so the sample must be rejected the same way.
    rng = random.Random("fixed")
    report = verify_factors_match(
        2, "numeric", t_samples=[Fraction(0), Fraction(1)], rng=rng
    )
    assert report.passed
    assert "0" in report.discarded_t_samples
    assert len(report.t_samples) == 2


def test_gamma_identities_small():
    report = verify_gamma_identities(1)
    assert report.passed
    assert report.range == {"i_max": 1, "j_max": 1, "l_max": 1}


def test_chain_small():
    report = verify_chain(2, elimination_cap=2)
    assert report.passed
    assert report.t_samples == ["1"]


# -- skip semantics -----------------------------------------------------------


def test_zero_bounds_mean_skipped_not_passed():
    for report in (
        verify_lu_product(0, "symbolic"),
        verify_factors_match(0, "numeric"),
        verify_gamma_identities(0),
        verify_chain(0),
    ):
        assert report.skipped
        assert not report.passed
        assert report.counterexample is None


def test_run_all_marks_skipped_suites():
    cfg = VerifyConfig(s_max_symbolic=0, s_max_numeric=2, s_max_factors_numeric=2,
                       n_t_samples=2, gamma_max=2, chain_max=2, chain_elimination_cap=2)
    reports = run_all(cfg)
    skipped = [r for r in reports if r.skipped]
    assert len(skipped) == 2
    assert all(r.mode == "symbolic" for r in skipped)
    assert all(r.passed or r.skipped for r in reports)


# -- determinism ---------------------------------------------------------------


def _small_config(seed):
    return VerifyConfig(
        seed=seed,
        s_max_symbolic=2,
        s_max_numeric=3,
        s_max_factors_numeric=3,
        n_t_samples=3,
        gamma_max=2,
        chain_max=3,
        chain_elimination_cap=3,
    )


def test_run_all_is_deterministic_for_fixed_seed():
    first = json.dumps([r.to_dict() for r in run_all(_small_config(7))])
    second = json.dumps([r.to_dict() for r in run_all(_small_config(7))])
    assert first == second


def test_different_seeds_draw_different_samples():
    a = run_all(_small_config(1))
    b = run_all(_small_config(2))
    samples_a = [r.t_samples for r in a if r.mode == "numeric" and r.t_samples != ["1"]]
    samples_b = [r.t_samples for r in b if r.mode == "numeric" and r.t_samples != ["1"]]
    assert samples_a != samples_b


def test_report_json_excludes_elapsed_by_default():
    report = verify_chain(1)
    assert "elapsed_ms" not in report.to_dict()
    assert report.elapsed_ms >= 0


def test_report_is_read_only():
    report = verify_chain(1)
    with pytest.raises(AttributeError):
        report.passed = False
    assert report.passed


# -- fault injection ---------------------------------------------------------


def _entry_U_with_wrong_constant(j, l, t):
    """entry_U with its 16^(j-1) power corrupted to 15^(j-1)."""
    from cauchylu.ratfunc import coerce_scalar

    t = coerce_scalar(t)
    one = t ** 0
    if l < j:
        return one * 0
    tt = t * t
    den = one
    for k in range(1, j + 1):
        den = den * ((2 * k - 1) ** 2 * tt - (2 * l) ** 2)
    for k in range(1, j):
        den = den * ((2 * j - 1) ** 2 * tt - (2 * k) ** 2)
    num = t ** (2 * j - 2) * ((-1) ** j * 15 ** (j - 1) * factorial(2 * j - 2))
    return num / den * Fraction(factorial(j + l - 1), l * factorial(l - j))


def test_fault_injected_entry_U_is_caught_at_size_two(monkeypatch):
    monkeypatch.setattr(closed_form, "entry_U", _entry_U_with_wrong_constant)
    report = verify_lu_product(2, "symbolic")
    assert not report.passed and not report.skipped
    assert report.counterexample is not None
    assert report.counterexample.indices["s"] == 2
    assert report.counterexample.lhs != report.counterexample.rhs


def test_fault_injected_entry_U_fails_factor_match_too(monkeypatch):
    monkeypatch.setattr(closed_form, "entry_U", _entry_U_with_wrong_constant)
    report = verify_factors_match(2, "numeric", t_samples=[Fraction(1)])
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.indices["factor"] == "U"


def _chain_e3_with_wrong_exponent(s):
    """Third chain expression with its per-factor power bumped by one."""
    total = Fraction(4**s, factorial(s))
    for j in range(1, s + 1):
        total *= Fraction(
            32**j * factorial(2 * j - 1) ** 4,
            factorial(4 * j - 1) * factorial(4 * j - 2),
        )
    return total


def test_fault_injected_chain_e3_fails_at_size_one(monkeypatch):
    assert _chain_e3_with_wrong_exponent(1) == Fraction(32, 3)
    monkeypatch.setattr(closed_form, "chain_e3", _chain_e3_with_wrong_exponent)
    report = verify_chain(1)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.indices == {"s": 1, "expressions": [1, 3]}
    assert report.counterexample.lhs == "1/3"
    assert report.counterexample.rhs == "32/3"


def _chain_e5_missing_last_binomial(s: int) -> Fraction:
    """chain_e5 with its product over j = 1..2s stopped one short."""
    den = factorial(s) ** 2
    for j in range(1, 2 * s):
        den *= binomial(2 * j, j)
    return Fraction(4 ** s * 16 ** (s * (s - 1)), den)


def test_fault_injected_single_normalised_chain_e5_is_caught(monkeypatch):
    assert _chain_e5_missing_last_binomial(1) == 2
    monkeypatch.setattr(closed_form, "chain_e5", _chain_e5_missing_last_binomial)
    report = verify_chain(5)
    assert not report.passed
    assert report.counterexample.to_dict() == {
        "indices": {"s": 1, "expressions": [1, 5]},
        "lhs": "1/3",
        "rhs": "2",
    }


def test_two_broken_chain_expressions_name_the_first(monkeypatch):
    monkeypatch.setattr(closed_form, "chain_e3", _chain_e3_with_wrong_exponent)
    monkeypatch.setattr(closed_form, "chain_e5", _chain_e5_missing_last_binomial)
    found = verify_chain(3).counterexample
    assert found.indices == {"s": 1, "expressions": [1, 3]}


def test_fault_injected_gamma_sign_fails_at_one(monkeypatch):
    original = closed_form.gamma_sides_left

    def missing_sign(i, j_max):
        for j, (lhs, rhs) in enumerate(original(i, j_max), start=1):
            yield lhs, rhs * (-1) ** j

    monkeypatch.setattr(closed_form, "gamma_sides_left", missing_sign)
    report = verify_gamma_identities(1)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.indices == {"identity": "left", "i": 1, "j": 1}
    assert report.counterexample.lhs != report.counterexample.rhs


def test_fault_injected_gamma_right_identity_is_named(monkeypatch):
    original = closed_form.gamma_sides_right

    def off_by_one(l, j_max):
        for lhs, rhs in original(l, j_max):
            yield lhs, rhs + 1

    monkeypatch.setattr(closed_form, "gamma_sides_right", off_by_one)
    report = verify_gamma_identities(1)
    assert not report.passed
    assert report.counterexample.indices == {"identity": "right", "j": 1, "l": 1}
    assert report.counterexample.lhs != report.counterexample.rhs


def test_fault_in_shared_left_product_fails_gamma_and_lu_product(monkeypatch):
    # The entries, through the products a build shares, and the left Gamma
    # identity multiply the factors of one row-product transcription, so one
    # slip in it (here the row index a read as a + 1) fails both.
    original = closed_form._row_factors
    monkeypatch.setattr(
        closed_form, "_row_factors", lambda a, ks, pp, qq: original(a + 1, ks, pp, qq)
    )
    gamma = verify_gamma_identities(2)
    assert not gamma.passed
    assert gamma.counterexample.indices == {"identity": "left", "i": 1, "j": 1}
    product = verify_lu_product(2, "symbolic")
    assert not product.passed
    assert product.counterexample.indices["s"] == 2


def test_fault_in_shared_right_product_fails_gamma_and_lu_product(monkeypatch):
    # The column-product twin: the column index l read as l + 1 in the one
    # column-product transcription fails the right Gamma identity and L @ U.
    original = closed_form._column_factors
    monkeypatch.setattr(
        closed_form, "_column_factors", lambda l, ks, pp, qq: original(l + 1, ks, pp, qq)
    )
    gamma = verify_gamma_identities(2)
    assert not gamma.passed
    assert gamma.counterexample.indices == {"identity": "right", "j": 1, "l": 1}
    product = verify_lu_product(2, "symbolic")
    assert not product.passed
    assert product.counterexample.indices["s"] == 1


@pytest.mark.parametrize(
    "name, faults, expected",
    [
        ("_column_factors", {(2, 3)}, {"identity": "right", "j": 3, "l": 2}),
        ("_row_factors", {(4, 2)}, {"identity": "left", "i": 4, "j": 2}),
        # j outer, l inner: (j=2, l=4) comes before (j=3, l=2)
        ("_column_factors", {(2, 3), (4, 2)}, {"identity": "right", "j": 2, "l": 4}),
        # i outer, j inner: (i=2, j=4) comes before (i=4, j=2)
        ("_row_factors", {(4, 2), (2, 4)}, {"identity": "left", "i": 2, "j": 4}),
    ],
)
def test_fault_at_a_later_index_is_named_there(monkeypatch, name, faults, expected):
    # Factor k of the product for one row or column index is doubled: every
    # prefix before it is right, so that index's running sides first differ
    # at j = k, and no other index's sides differ.
    original = getattr(closed_form, name)

    def faulty(index, ks, pp, qq):
        factors = original(index, ks, pp, qq)
        return (f * 2 if (index, k) in faults else f for k, f in zip(ks, factors))

    monkeypatch.setattr(closed_form, name, faulty)
    found = verify_gamma_identities(5).counterexample
    assert found.indices == expected
    if name == "_column_factors":
        lhs, rhs = closed_form.gamma_identity_right(expected["j"], expected["l"])
    else:
        lhs, rhs = closed_form.gamma_identity_left(expected["i"], expected["j"])
    assert (found.lhs, found.rhs) == (serialize_value(lhs), serialize_value(rhs))


@pytest.mark.parametrize(
    "name, expected",
    [
        ("gamma_sides_left", {"identity": "left", "i": 1, "j": 8, "check": "length"}),
        ("gamma_sides_right", {"identity": "right", "j": 8, "l": 1, "check": "length"}),
    ],
)
def test_gamma_stream_cut_short_is_named_at_its_first_missing_index(monkeypatch, name, expected):
    # Each stream stops one pair early; pairing it with the index range by
    # zip, or advancing the columns by map(next, ...), would stop with it.
    original = getattr(closed_form, name)
    monkeypatch.setattr(closed_form, name, lambda index, j_max: islice(original(index, j_max), j_max - 1))
    report = verify_gamma_identities(8)
    assert not report.passed
    assert report.counterexample.to_dict() == {"indices": expected, "lhs": "7", "rhs": "8"}


@pytest.mark.parametrize("suite", [verify_lu_product, verify_factors_match])
@pytest.mark.parametrize(
    "t_samples, base", [(None, {}), ([Fraction(1)], {"t": "1"})], ids=["symbolic", "t=1"]
)
def test_table_of_the_wrong_shape_fails_before_any_border(monkeypatch, suite, t_samples, base):
    # Factors one column too wide: every leading block is right, so the
    # borders alone would pass.
    monkeypatch.setattr(
        closed_form,
        "_build",
        lambda s, t, entry: ExactMatrix([[entry(a, b, t) for b in range(1, s + 2)] for a in range(1, s + 1)]),
    )
    report = suite(4, "symbolic" if t_samples is None else "numeric", t_samples=t_samples)
    assert not report.passed
    assert report.counterexample.to_dict() == {
        "indices": {"s": 4, **base, "factor": "L", "check": "shape"},
        "lhs": "4x5",
        "rhs": "4x4",
    }


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_lu_product_lifts_no_triangle(monkeypatch, mode):
    # The triangles are padded with the field's own zero, so ExactMatrix
    # takes both as they are and the product needs no common field.
    def refuse(*args):
        raise AssertionError("an entry was lifted")

    monkeypatch.setattr(matrix_mod, "_lifted", refuse)
    t_samples = [Fraction(37, 11)] if mode == "numeric" else None
    assert verify_lu_product(4, mode, t_samples=t_samples).passed


def test_fault_injected_entry_L_names_factor_L(monkeypatch):
    original = closed_form.entry_L
    monkeypatch.setattr(closed_form, "entry_L", lambda i, j, t: original(i, j, t) * 2)
    report = verify_factors_match(1, "symbolic")
    assert not report.passed
    assert report.counterexample.to_dict() == {
        "indices": {"s": 1, "factor": "L", "i": 1, "l": 1},
        "lhs": "2",
        "rhs": "1",
    }


def test_numeric_counterexample_names_t_and_ends_sampling(monkeypatch):
    original = closed_form.entry_U

    def wrong_at_one_third(j, l, t):
        value = original(j, l, t)
        return value * 2 if t == Fraction(1, 3) else value

    monkeypatch.setattr(closed_form, "entry_U", wrong_at_one_third)
    samples = [Fraction(2), Fraction(1), Fraction(1, 3), Fraction(5)]
    report = verify_lu_product(2, "numeric", t_samples=samples)
    assert not report.passed
    assert report.counterexample.indices == {"s": 1, "t": "1/3", "i": 1, "l": 1}
    assert report.discarded_t_samples == ["2"]
    assert report.t_samples == ["1", "1/3"]  # t = 5 is never drawn


def test_fault_injected_diagonal_product_is_named(monkeypatch):
    monkeypatch.setattr(closed_form, "det_closed", lambda s, t: Fraction(1, 7))
    report = verify_chain(1)
    assert not report.passed
    assert report.counterexample.to_dict() == {
        "indices": {"s": 1, "check": "diagonal_product"},
        "lhs": "1/7",
        "rhs": "1/3",
    }


def test_fault_injected_elimination_is_named_within_cap(monkeypatch):
    monkeypatch.setattr(verify_mod, "det_elimination", lambda m: Fraction(1, 7))
    assert verify_chain(1, elimination_cap=0).passed
    report = verify_chain(1, elimination_cap=1)
    assert not report.passed
    assert report.counterexample.to_dict() == {
        "indices": {"s": 1, "check": "elimination"},
        "lhs": "1/7",
        "rhs": "1/3",
    }


def test_equal_but_nonpositive_chain_fails_positivity(monkeypatch):
    monkeypatch.setattr(closed_form, "chain_t1", lambda s: ChainValues(s, (Fraction(-1),) * 6))
    report = verify_chain(1)
    assert not report.passed
    assert report.counterexample.to_dict() == {
        "indices": {"s": 1, "check": "positivity"},
        "lhs": "-1",
        "rhs": "> 0",
    }


def test_retries_exhausted_when_every_sample_is_bad(monkeypatch):
    monkeypatch.setattr(verify_mod, "_sample_rational", lambda rng: Fraction(2))
    with pytest.raises(RetriesExhausted):
        verify_lu_product(1, "numeric", n_samples=1, rng=random.Random(0))


def _errored(suite, bounds, mode, error):
    return {
        "suite": suite,
        "range": bounds,
        "mode": mode,
        "t_samples": [],
        "discarded_t_samples": [],
        "passed": False,
        "skipped": False,
        "counterexample": None,
        "error": error,
    }


def test_run_all_survives_suite_errors(monkeypatch):
    def broken_chain(s):
        raise DomainError("chain unavailable")

    monkeypatch.setattr(verify_mod, "_sample_rational", lambda rng: Fraction(2))
    monkeypatch.setattr(closed_form, "chain_t1", broken_chain)
    reports = run_all(_small_config(0))
    exhausted = "no acceptable sample found in 100 attempts"
    assert [r.to_dict() for r in reports if r.error is not None] == [
        _errored("lu_product", {"s_max": 3}, "numeric", exhausted),
        _errored("factors_match", {"s_max": 3}, "numeric", exhausted),
        _errored(
            "chain_t1", {"s_max": 3, "elimination_cap": 3}, "numeric", "chain unavailable"
        ),
    ]
    # the other suites still ran to completion
    assert sum(1 for r in reports if r.passed) == len(reports) - 3


# -- bad arguments -------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: verify_lu_product(-1), id="lu_product-negative-s_max"),
        pytest.param(lambda: verify_factors_match(-1, "numeric"), id="factors-negative-s_max"),
        pytest.param(lambda: verify_lu_product(2, "Symbolic"), id="lu_product-unknown-mode"),
        pytest.param(lambda: verify_factors_match(2, "exact"), id="factors-unknown-mode"),
        pytest.param(
            lambda: verify_lu_product(2, "numeric", n_samples=0), id="lu_product-no-samples"
        ),
        pytest.param(
            lambda: verify_factors_match(2, "numeric", t_samples=[]), id="factors-empty-t_samples"
        ),
        pytest.param(
            lambda: verify_lu_product(2, "numeric", t_samples=5), id="lu_product-t_samples-int"
        ),
        pytest.param(
            lambda: verify_factors_match(2, "numeric", t_samples=5), id="factors-t_samples-int"
        ),
        pytest.param(
            lambda: verify_lu_product(2, "symbolic", t_samples=[1.5, "x"]),
            id="lu_product-symbolic-t_samples",
        ),
        pytest.param(
            lambda: verify_factors_match(2, t_samples=[Fraction(1)]), id="factors-symbolic-t_samples"
        ),
        pytest.param(
            lambda: verify_lu_product(2, "symbolic", rng=random.Random(0)), id="lu_product-symbolic-rng"
        ),
        pytest.param(
            lambda: verify_factors_match(2, "symbolic", rng=random.Random(0)), id="factors-symbolic-rng"
        ),
        pytest.param(lambda: verify_gamma_identities(-1), id="gamma-negative-bound"),
        pytest.param(lambda: verify_chain(-1), id="chain-negative-s_max"),
        pytest.param(lambda: verify_chain(3, elimination_cap=-5), id="chain-negative-cap"),
        pytest.param(lambda: VerifyConfig(s_max_symbolic=-2), id="config-negative-s_max"),
        pytest.param(lambda: VerifyConfig(n_t_samples=0), id="config-no-samples"),
        pytest.param(lambda: VerifyConfig(chain_elimination_cap=-1), id="config-negative-cap"),
        pytest.param(lambda: VerifyConfig()._replace(n_t_samples=0), id="config-replace"),
    ],
)
def test_bad_arguments_raise_domain_error_before_any_check(call, monkeypatch):
    def no_checks(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify_mod, "_run", no_checks)
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: build_matrix(2.0, 1), id="build_matrix"),
        pytest.param(lambda: closed_form.build_L(2.0, 1), id="build_L"),
        pytest.param(lambda: closed_form.build_U(2.0, 1), id="build_U"),
        pytest.param(lambda: closed_form.det_closed(2.5, 1), id="det_closed"),
        pytest.param(lambda: closed_form.chain_t1(2.0), id="chain_t1"),
        pytest.param(lambda: verify_lu_product(2.0), id="verify_lu_product"),
        pytest.param(lambda: verify_chain(3, elimination_cap="3"), id="verify_chain-cap"),
        pytest.param(lambda: verify_gamma_identities(2.5), id="verify_gamma_identities"),
        pytest.param(lambda: run_all(VerifyConfig(gamma_max=2.5)), id="run_all-gamma_max"),
        pytest.param(lambda: VerifyConfig(seed=None), id="config-seed-none"),
        pytest.param(lambda: VerifyConfig(seed=1.5), id="config-seed-float"),
    ],
)
def test_sizes_that_are_not_ints_raise_domain_error(call):
    with pytest.raises(DomainError, match="must be an int"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: run_all(5), id="run_all-int"),
        pytest.param(lambda: run_all(0), id="run_all-zero"),
        pytest.param(lambda: run_all((0, 1, 1, 1, 1, 1, 1, 1)), id="run_all-plain-tuple"),
        pytest.param(
            lambda: verify_lu_product(2, "numeric", t_samples=[SYMBOLIC_T]), id="lu_product-symbolic-t"
        ),
        pytest.param(
            lambda: verify_factors_match(2, "numeric", t_samples=[SYMBOLIC_T]), id="factors-symbolic-t"
        ),
        pytest.param(
            lambda: verify_lu_product(2, "numeric", t_samples=[Fraction(1), 1.5]), id="lu_product-float-t"
        ),
        pytest.param(
            lambda: verify_factors_match(2, "numeric", t_samples=["1/2"]), id="factors-text-t"
        ),
        pytest.param(lambda: verify_lu_product(2, "numeric", rng=5), id="lu_product-int-rng"),
        pytest.param(lambda: verify_factors_match(2, "numeric", rng=5), id="factors-int-rng"),
    ],
)
def test_configs_and_numeric_samples_of_the_wrong_type_raise_domain_error(call, monkeypatch):
    def no_checks(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify_mod, "_run", no_checks)
    with pytest.raises(DomainError):
        call()


def test_run_all_of_none_runs_the_default_config(monkeypatch):
    calls = []

    def recording(name):
        def suite(*args, **kwargs):
            kwargs.pop("rng", None)
            calls.append((name, args, kwargs))

        return suite

    for name in ("verify_lu_product", "verify_factors_match", "verify_gamma_identities", "verify_chain"):
        monkeypatch.setattr(verify_mod, name, recording(name))
    run_all(None)
    default = VerifyConfig()
    samples = {"n_samples": default.n_t_samples}
    assert calls == [
        ("verify_lu_product", (default.s_max_symbolic, "symbolic"), {}),
        ("verify_lu_product", (default.s_max_numeric, "numeric"), samples),
        ("verify_factors_match", (default.s_max_symbolic, "symbolic"), {}),
        ("verify_factors_match", (default.s_max_factors_numeric, "numeric"), samples),
        ("verify_gamma_identities", (default.gamma_max,), {}),
        ("verify_chain", (default.chain_max, default.chain_elimination_cap), {}),
    ]


def test_zero_elimination_cap_and_negative_seed_are_accepted():
    assert verify_chain(1, elimination_cap=0).passed
    assert VerifyConfig(seed=-3, s_max_symbolic=0).s_max_symbolic == 0


def test_verify_config_cannot_be_changed_past_its_checks():
    cfg = VerifyConfig()
    with pytest.raises(AttributeError):
        cfg.s_max_symbolic = -1
    assert cfg.s_max_symbolic == 6
    with pytest.raises(AttributeError):
        cfg.s_max = -1
    assert not hasattr(cfg, "s_max")


# -- one build at s_max, compared in size order ----------------------------------


def _reference(suite, s_max, t):
    """The per-size loop: rebuild every matrix for each s = 1..s_max and
    compare whole s-by-s blocks row-major, as the suites once did.  For the
    product it first checks that the closed-form factors are triangular,
    L before U, which the size-ordered suite reports by factor."""
    base = {} if t is SYMBOLIC_T else {"t": str(t)}
    for s in range(1, s_max + 1):
        lower = closed_form.build_L(s, t)
        upper = closed_form.build_U(s, t)
        target = build_matrix(s, t)
        if suite == "lu_product":
            tri_lower = ExactMatrix(
                [[lower.at(i, l) if i >= l else 0 for l in range(1, s + 1)] for i in range(1, s + 1)]
            )
            tri_upper = ExactMatrix(
                [[upper.at(i, l) if i <= l else 0 for l in range(1, s + 1)] for i in range(1, s + 1)]
            )
            pairs = [({"factor": "L"}, lower, tri_lower), ({"factor": "U"}, upper, tri_upper),
                     ({}, lower @ upper, target)]
        else:
            factors = lu_doolittle(target)
            pairs = [({"factor": "L"}, lower, factors.L), ({"factor": "U"}, upper, factors.U)]
        for label, lhs, rhs in pairs:
            for i in range(1, s + 1):
                for l in range(1, s + 1):
                    a, b = lhs.at(i, l), rhs.at(i, l)
                    if a != b:
                        indices = {"s": s, **base, **label, "i": i, "l": l}
                        return {"indices": indices, "lhs": serialize_value(a),
                                "rhs": serialize_value(b)}
    return None


def _double(value):
    return value * 2


def _plus_one(value):
    return value + 1


def _inject(monkeypatch, *faults):
    """Wrap closed_form.<name> so its entry at (i, l) is changed, per fault."""
    for name, where, change in faults:
        original = getattr(closed_form, name)

        def faulty(i, l, t, original=original, where=where, change=change):
            value = original(i, l, t)
            return change(value) if (i, l) == where else value

        monkeypatch.setattr(closed_form, name, faulty)


FAULTS = {
    # row-major over the 3x3 block meets U(1,3) first; size order meets U(2,2)
    "U13-and-U22": [("entry_U", (1, 3), _double), ("entry_U", (2, 2), _double)],
    "L31-and-U12": [("entry_L", (3, 1), _double), ("entry_U", (1, 2), _double)],
    "L12-nonzero": [("entry_L", (1, 2), _plus_one)],
    "U21-nonzero": [("entry_U", (2, 1), _plus_one)],
    # together they change entry (1, 1) of L @ U, but not of the product of
    # the 1x1 blocks; the L check names L(1, 2) at s = 2
    "L12-and-U21-nonzero": [("entry_L", (1, 2), _plus_one), ("entry_U", (2, 1), _plus_one)],
    # each alone leaves the 2x2 product intact; together they change the
    # (1, 2) entry of the 3x3 product, which the per-size loop meets at s = 3
    "L13-and-U32-nonzero": [("entry_L", (1, 3), _plus_one), ("entry_U", (3, 2), _plus_one)],
    "U33": [("entry_U", (3, 3), _double)],
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("suite", ["lu_product", "factors_match"])
@pytest.mark.parametrize("t", [SYMBOLIC_T, Fraction(1, 3)], ids=["symbolic", "t=1/3"])
def test_counterexample_equals_per_size_reference(monkeypatch, fault, suite, t):
    _inject(monkeypatch, *FAULTS[fault])
    run = verify_lu_product if suite == "lu_product" else verify_factors_match
    if t is SYMBOLIC_T:
        report = run(3, "symbolic")
    else:
        report = run(3, "numeric", t_samples=[t])
    expected = _reference(suite, 3, t)
    assert expected is not None
    assert report.counterexample.to_dict() == expected


def test_size_order_beats_row_major_order(monkeypatch):
    _inject(monkeypatch, *FAULTS["U13-and-U22"])
    assert verify_lu_product(3, "symbolic").counterexample.indices == {"s": 2, "i": 2, "l": 2}
    found = verify_factors_match(3, "symbolic").counterexample.indices
    assert found == {"s": 2, "factor": "U", "i": 2, "l": 2}


def test_smaller_U_fault_beats_larger_L_fault(monkeypatch):
    _inject(monkeypatch, *FAULTS["L31-and-U12"])
    found = verify_factors_match(3, "numeric", t_samples=[Fraction(1)]).counterexample.indices
    assert found == {"s": 2, "t": "1", "factor": "U", "i": 1, "l": 2}


def test_lu_product_names_a_triangularity_violation(monkeypatch):
    _inject(monkeypatch, *FAULTS["L12-nonzero"])
    report = verify_lu_product(3, "symbolic")
    assert report.counterexample.to_dict() == {
        "indices": {"s": 2, "factor": "L", "i": 1, "l": 2},
        "lhs": "1",
        "rhs": "0",
    }


def test_sized_suites_build_once_per_t(monkeypatch):
    calls = []
    original = closed_form.build_L

    def counted(s, t):
        calls.append((s, str(t)))
        return original(s, t)

    monkeypatch.setattr(closed_form, "build_L", counted)
    assert verify_lu_product(6, "symbolic").passed
    assert len(calls) == 1
    calls.clear()
    assert verify_factors_match(3, "numeric", t_samples=[Fraction(1), Fraction(1, 3)]).passed
    assert calls == [(3, "1"), (3, "1/3")]


def test_t_singular_only_above_the_failing_size_is_discarded(monkeypatch):
    # t = 6/5 zeroes the (3, 3) denominator only.  A per-size loop meets the
    # size-1 fault before it builds size 3 and reports the fault at t = 6/5;
    # one build at s_max discards 6/5 and reports the fault at the next t.
    _inject(monkeypatch, ("entry_U", (1, 1), _double))
    assert _reference("lu_product", 3, Fraction(6, 5))["indices"]["t"] == "6/5"
    report = verify_lu_product(3, "numeric", t_samples=[Fraction(6, 5), Fraction(1)])
    assert report.discarded_t_samples == ["6/5"]
    assert report.t_samples == ["1"]
    assert report.counterexample.indices == {"s": 1, "t": "1", "i": 1, "l": 1}


# -- several faults at once: the first in the documented order is reported ------


def _walk_reference(suite, s_max, t):
    """Visit entries one at a time in the documented order -- size s, then
    side, then row-major over the border of the s-by-s block (column s above
    the diagonal, then row s) -- and return the first difference.  Product
    entries are summed term by term over the leading max(i, l) blocks."""
    base = {} if t is SYMBOLIC_T else {"t": str(t)}
    lower = closed_form.build_L(s_max, t)
    upper = closed_form.build_U(s_max, t)
    if suite == "lu_product":

        def product(i, l):
            total = lower.at(i, 1) * upper.at(1, l)
            for k in range(2, max(i, l) + 1):
                total = total + lower.at(i, k) * upper.at(k, l)
            return total

        sides = [
            ({"factor": "L"}, lower.at, lambda i, l: lower.at(i, l) if i >= l else 0),
            ({"factor": "U"}, upper.at, lambda i, l: upper.at(i, l) if i <= l else 0),
            ({}, product, build_matrix(s_max, t).at),
        ]
    else:
        factors = verify_mod.lu_doolittle(build_matrix(s_max, t))
        sides = [({"factor": "L"}, lower.at, factors.L.at), ({"factor": "U"}, upper.at, factors.U.at)]
    for s in range(1, s_max + 1):
        for label, lhs, rhs in sides:
            border = [(i, s) for i in range(1, s)] + [(s, l) for l in range(1, s + 1)]
            for i, l in border:
                a, b = lhs(i, l), rhs(i, l)
                if a != b:
                    indices = {"s": s, **base, **label, "i": i, "l": l}
                    return {"indices": indices, "lhs": serialize_value(a), "rhs": serialize_value(b)}
    return None


def _inject_doolittle(monkeypatch, factor, where, change):
    """Wrap verify's lu_doolittle so entry ``where`` of its ``factor`` is changed."""
    original = verify_mod.lu_doolittle

    def faulty(m):
        factors = original(m)
        rows = [list(row) for row in getattr(factors, factor).rows]
        i, l = where
        rows[i - 1][l - 1] = change(rows[i - 1][l - 1])
        return factors._replace(**{factor: ExactMatrix(rows)})

    monkeypatch.setattr(verify_mod, "lu_doolittle", faulty)


# Each scenario: (closed-form faults, Doolittle faults).
MULTI_FAULTS = {
    # L and U both wrong at s = 3: a row-part entry of L, a column-part one of U
    "two-sides-one-size": ([("entry_L", (3, 2), _double), ("entry_U", (2, 3), _double)], []),
    # a column-part fault at s = 4 and a row-part fault at s = 3
    "two-sizes": ([("entry_U", (1, 4), _double), ("entry_L", (3, 1), _double)], []),
    # nonzero above L's diagonal (column part) before a row-part fault, both at s = 3
    "above-L-diagonal": ([("entry_L", (1, 3), _plus_one), ("entry_L", (3, 2), _double)], []),
    # Doolittle's U wrong at s = 2, the closed-form L at s = 4
    "doolittle-U-first": ([("entry_L", (4, 1), _double)], [("U", (2, 2), _double)]),
    # Doolittle's L (row part) and the closed-form U (row part), both at s = 3
    "doolittle-L-and-U": ([("entry_U", (3, 3), _double)], [("L", (3, 1), _double)]),
    # Doolittle's L nonzero above the diagonal, with U column- and row-part faults
    "doolittle-above-diagonal": (
        [("entry_U", (2, 4), _double), ("entry_U", (4, 4), _double)],
        [("L", (2, 4), _plus_one)],
    ),
}


@pytest.mark.parametrize("scenario", sorted(MULTI_FAULTS))
@pytest.mark.parametrize("suite", ["lu_product", "factors_match"])
@pytest.mark.parametrize("t", [SYMBOLIC_T, Fraction(1, 3)], ids=["symbolic", "t=1/3"])
def test_first_counterexample_of_several_faults_follows_the_border_order(
    monkeypatch, scenario, suite, t
):
    closed, doolittle = MULTI_FAULTS[scenario]
    _inject(monkeypatch, *closed)
    for factor, where, change in doolittle:
        _inject_doolittle(monkeypatch, factor, where, change)
    run = verify_lu_product if suite == "lu_product" else verify_factors_match
    if t is SYMBOLIC_T:
        report = run(4, "symbolic")
    else:
        report = run(4, "numeric", t_samples=[t])
    expected = _walk_reference(suite, 4, t)
    assert expected is not None
    assert report.counterexample.to_dict() == expected


@pytest.mark.parametrize(
    "scenario, suite, indices",
    [
        ("two-sides-one-size", "factors_match", {"factor": "L", "i": 3, "l": 2}),
        ("two-sides-one-size", "lu_product", {"i": 2, "l": 3}),
        ("two-sizes", "factors_match", {"factor": "L", "i": 3, "l": 1}),
        ("above-L-diagonal", "lu_product", {"factor": "L", "i": 1, "l": 3}),
        ("above-L-diagonal", "factors_match", {"factor": "L", "i": 1, "l": 3}),
        ("doolittle-U-first", "factors_match", {"factor": "U", "i": 2, "l": 2}),
        ("doolittle-above-diagonal", "factors_match", {"factor": "L", "i": 2, "l": 4}),
    ],
)
def test_several_faults_report_the_documented_first_entry(monkeypatch, scenario, suite, indices):
    closed, doolittle = MULTI_FAULTS[scenario]
    _inject(monkeypatch, *closed)
    for factor, where, change in doolittle:
        _inject_doolittle(monkeypatch, factor, where, change)
    run = verify_lu_product if suite == "lu_product" else verify_factors_match
    found = run(4, "symbolic").counterexample.indices
    assert found == {"s": max(indices["i"], indices["l"]), **indices}
