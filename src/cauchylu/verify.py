"""Identity-verification suites with structured, reproducible reports.

Each suite compares two independently computed sides of one identity over a
full index range and reports pass/fail with the first counterexample found.
Every suite is a lazy sequence of checks, each giving a Counterexample or
None, fed to one driver (``_run``) that marks skips, times the run and keeps
the first counterexample.  The two sized suites share ``_verify_sizes``,
which runs one check per size symbolically or at each numeric t sample.

Suites are independent: run_all executes every one of them, never letting a
failure in one abort another, and aggregates the reports.  A suite that
raises a CauchyLUError still raises to a direct caller; the driver attaches
an error-only report for that suite as ``exc.report``, and run_all records
that report in the suite's place.

Numeric t samples are drawn as fractions p/q with 1 <= p, q <= 50 and
rejection-sampled past the bad set (vanishing entry denominators, vanishing
leading minors): a rejected sample is recorded and replaced, up to 100
attempts per slot.  With a fixed seed the sample stream, and with it the
whole report list, is identical from run to run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import closed_form
from .errors import CauchyLUError, RetriesExhausted, SingularEntry, ZeroPivot
from .formats import serialize_value
from .matrix import build_matrix, det_elimination, lu_doolittle
from .ratfunc import SYMBOLIC_T

MAX_SAMPLE_ATTEMPTS = 100

SUITE_LU_PRODUCT = "lu_product"
SUITE_FACTORS_MATCH = "factors_match"
SUITE_GAMMA = "gamma_identities"
SUITE_CHAIN = "chain_t1"


@dataclass(frozen=True)
class Counterexample:
    """One concrete index tuple where the two sides differ."""

    indices: dict
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"indices": dict(self.indices), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class VerificationReport:
    suite: str
    range: dict
    mode: str
    t_samples: list[str] = field(default_factory=list)
    discarded_t_samples: list[str] = field(default_factory=list)
    passed: bool = False
    skipped: bool = False
    counterexample: Counterexample | None = None
    error: str | None = None
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        # Key order is the wire format; elapsed_ms is left out because
        # timings would break byte-for-byte reproducibility of seeded runs.
        return {
            "suite": self.suite,
            "range": dict(self.range),
            "mode": self.mode,
            "t_samples": list(self.t_samples),
            "discarded_t_samples": list(self.discarded_t_samples),
            "passed": self.passed,
            "skipped": self.skipped,
            "counterexample": self.counterexample.to_dict() if self.counterexample else None,
            "error": self.error,
        }


@dataclass
class VerifyConfig:
    seed: int = 0
    s_max_symbolic: int = 6
    s_max_numeric: int = 12
    s_max_factors_numeric: int = 10
    n_t_samples: int = 20
    gamma_max: int = 8
    chain_max: int = 20
    chain_elimination_cap: int = 12


def _sample_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 50), rng.randint(1, 50))


def _compare_matrices(computed, reference, base_indices: dict) -> Counterexample | None:
    n = computed.n_rows
    for i in range(1, n + 1):
        for l in range(1, n + 1):
            a = computed.at(i, l)
            b = reference.at(i, l)
            if a != b:
                indices = dict(base_indices)
                indices.update(i=i, l=l)
                return Counterexample(indices, serialize_value(a), serialize_value(b))
    return None


def _first(results) -> Counterexample | None:
    return next((found for found in results if found is not None), None)


def _differ(indices: dict, lhs, rhs) -> Counterexample | None:
    if lhs == rhs:
        return None
    return Counterexample(indices, serialize_value(lhs), serialize_value(rhs))


def _run(report: VerificationReport, skip: bool, results) -> VerificationReport:
    """The one suite driver: skip, time, and keep the first counterexample.

    ``results`` is a lazy iterable of Counterexample-or-None, one per check;
    it is consumed only up to the first counterexample.  A CauchyLUError
    raised while consuming it propagates with ``exc.report`` set to an
    error-only report for the same suite, range and mode, which run_all
    appends in place of the suite's own.
    """
    started = time.perf_counter()
    try:
        if skip:
            report.skipped = True
        else:
            report.counterexample = _first(results)
            report.passed = report.counterexample is None
    except CauchyLUError as exc:
        report = exc.report = VerificationReport(
            report.suite, report.range, report.mode, error=str(exc)
        )
        raise
    finally:
        report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return report


def _run_numeric(report: VerificationReport, t_samples, n_samples, rng, check_one):
    """Rejection sampling: yield ``check_one(t)`` for each accepted sample t.

    ``check_one(t)`` returns a Counterexample or None and may raise
    SingularEntry/ZeroPivot, which discards the sample and draws a fresh one.
    """
    provided = list(t_samples) if t_samples is not None else []
    wanted = len(provided) if t_samples is not None else n_samples
    if rng is None:
        rng = random.Random("resample")
    for _ in range(wanted):
        for _ in range(MAX_SAMPLE_ATTEMPTS):
            t = provided.pop(0) if provided else _sample_rational(rng)
            try:
                found = check_one(t)
            except (SingularEntry, ZeroPivot):
                report.discarded_t_samples.append(str(t))
                continue
            report.t_samples.append(str(t))
            break
        else:
            raise RetriesExhausted(MAX_SAMPLE_ATTEMPTS)
        yield found


def _verify_sizes(suite, s_max, mode, t_samples, n_samples, rng, check_one_size):
    """Run ``check_one_size(s, t, indices)`` for every s = 1..s_max.

    Symbolic mode runs it once per s at the symbolic t; any other mode runs
    all sizes at each accepted numeric sample, and the counterexample's
    indices then name that t as well.
    """
    report = VerificationReport(suite, {"s_max": s_max}, mode)
    sizes = range(1, s_max + 1)
    if mode == "symbolic":
        results = (check_one_size(s, SYMBOLIC_T, {"s": s}) for s in sizes)
    else:

        def check_one(t) -> Counterexample | None:
            return _first(check_one_size(s, t, {"s": s, "t": str(t)}) for s in sizes)

        results = _run_numeric(report, t_samples, n_samples, rng, check_one)
    return _run(report, s_max < 1, results)


def verify_lu_product(
    s_max: int,
    mode: str = "symbolic",
    t_samples=None,
    n_samples: int = 20,
    rng: random.Random | None = None,
) -> VerificationReport:
    """Check that the closed-form factors multiply back to the matrix.

    Entrywise exact equality of (lower factor) @ (upper factor) against the
    built matrix, for every s = 1..s_max, symbolically or at numeric t
    samples.
    """

    def check_one_size(s: int, t, base: dict) -> Counterexample | None:
        product = closed_form.build_L(s, t) @ closed_form.build_U(s, t)
        target = build_matrix(s, t)
        return _compare_matrices(product, target, base)

    return _verify_sizes(
        SUITE_LU_PRODUCT, s_max, mode, t_samples, n_samples, rng, check_one_size
    )


def verify_factors_match(
    s_max: int,
    mode: str = "symbolic",
    t_samples=None,
    n_samples: int = 20,
    rng: random.Random | None = None,
) -> VerificationReport:
    """Check the closed-form factors against elimination-computed factors.

    Runs Doolittle elimination on the built matrix and compares both factors
    entrywise with the directly assembled ones.  Numeric samples that hit a
    zero pivot are discarded and resampled, and show up in the report.
    """

    def check_one_size(s: int, t, base: dict) -> Counterexample | None:
        factors = lu_doolittle(build_matrix(s, t))
        found = _compare_matrices(
            closed_form.build_L(s, t), factors.L, {**base, "factor": "L"}
        )
        if found is not None:
            return found
        return _compare_matrices(
            closed_form.build_U(s, t), factors.U, {**base, "factor": "U"}
        )

    return _verify_sizes(
        SUITE_FACTORS_MATCH, s_max, mode, t_samples, n_samples, rng, check_one_size
    )


def verify_gamma_identities(i_max: int = 8, j_max: int = 8, l_max: int = 8) -> VerificationReport:
    """Check both Gamma-product identities over the full index grid.

    Exact rational-function equality of the literal product against its
    rising-factorial form, for the row identity on (i, j) and the column
    identity on (j, l).
    """

    def checks():
        for i in range(1, i_max + 1):
            for j in range(1, j_max + 1):
                lhs, rhs = closed_form.gamma_identity_left(i, j)
                yield _differ({"identity": "left", "i": i, "j": j}, lhs, rhs)
        for j in range(1, j_max + 1):
            for l in range(1, l_max + 1):
                lhs, rhs = closed_form.gamma_identity_right(j, l)
                yield _differ({"identity": "right", "j": j, "l": l}, lhs, rhs)

    bounds = {"i_max": i_max, "j_max": j_max, "l_max": l_max}
    report = VerificationReport(SUITE_GAMMA, bounds, "symbolic")
    return _run(report, min(i_max, j_max, l_max) < 1, checks())


def verify_chain(s_max: int = 20, elimination_cap: int = 12) -> VerificationReport:
    """Check the six t=1 expressions against each other and the determinant.

    For each s: all six chain values must agree, the last must be positive
    and equal the diagonal-product determinant at t=1, and -- up to the
    elimination cap -- equal the Gaussian-elimination determinant as well.
    """

    def checks():
        for s in range(1, s_max + 1):
            chain = closed_form.chain_t1(s)
            disagreement = chain.first_disagreement()
            if disagreement is not None:
                ref, offender = disagreement
                indices = {"s": s, "expressions": [ref, offender]}
                yield _differ(indices, chain.values[ref - 1], chain.values[offender - 1])
            value = chain.values[5]
            if not value > 0:
                yield Counterexample(
                    {"s": s, "check": "positivity"}, serialize_value(value), "> 0"
                )
            diagonal = closed_form.det_closed(s, 1)
            yield _differ({"s": s, "check": "diagonal_product"}, diagonal, value)
            if s <= elimination_cap:
                eliminated = det_elimination(build_matrix(s, 1))
                yield _differ({"s": s, "check": "elimination"}, eliminated, value)

    bounds = {"s_max": s_max, "elimination_cap": elimination_cap}
    report = VerificationReport(SUITE_CHAIN, bounds, "numeric", t_samples=["1"])
    return _run(report, s_max < 1, checks())


def run_all(config: VerifyConfig | None = None) -> list[VerificationReport]:
    """Run every suite with per-suite seeded sampling; nothing aborts early.

    A suite that raises (e.g. RetriesExhausted) is reported as failed with
    the error message; the remaining suites still run.
    """
    cfg = config or VerifyConfig()

    def suite_rng(name: str) -> random.Random:
        return random.Random(f"{cfg.seed}:{name}")

    def attempt(suite, *args, **kwargs) -> VerificationReport:
        try:
            return suite(*args, **kwargs)
        except CauchyLUError as exc:
            return exc.report

    return [
        attempt(verify_lu_product, cfg.s_max_symbolic, "symbolic"),
        attempt(
            verify_lu_product,
            cfg.s_max_numeric,
            "numeric",
            n_samples=cfg.n_t_samples,
            rng=suite_rng(SUITE_LU_PRODUCT),
        ),
        attempt(verify_factors_match, cfg.s_max_symbolic, "symbolic"),
        attempt(
            verify_factors_match,
            cfg.s_max_factors_numeric,
            "numeric",
            n_samples=cfg.n_t_samples,
            rng=suite_rng(SUITE_FACTORS_MATCH),
        ),
        attempt(verify_gamma_identities, cfg.gamma_max, cfg.gamma_max, cfg.gamma_max),
        attempt(verify_chain, cfg.chain_max, cfg.chain_elimination_cap),
    ]
