"""Identity-verification suites with structured, reproducible reports.

Each suite compares two independently computed sides of one identity over a
full index range and reports pass/fail with the first counterexample found.
Every suite is a lazy sequence of checks, each giving a Counterexample or
None, fed to one driver (``_run``) that times the run, keeps the first
counterexample and builds the suite's report once, at the end; a report is
a read-only value.  The numeric t samples that the checks accept or discard
are gathered until then in two lists the suite owns.  The two sized suites
build their matrices once per accepted t at s_max (once in symbolic mode):
the size-s matrices and their Doolittle factors are leading blocks of
those.  Entries are compared by size s = max(i, l), then L before U, then
row-major, so a counterexample names the smallest failing size; each size
compares the border of its leading block as one list (``_verify_sizes``).
The product check asserts that L is zero above the diagonal and U below it,
and compares the leading blocks of M with those of the product of the two
triangles, L and U with the other triangle read as 0; a violation names its
factor, with rhs 0.  Each leading block of a product of triangular factors
is the product of their leading blocks, so a pass means that every size-s
closed form multiplies back to its M.

Suites are independent: run_all executes every one of them, never letting a
failure in one abort another, and aggregates the reports.  A suite that
raises a CauchyLUError still raises to a direct caller; the driver attaches
an error-only report for that suite as ``exc.report``, and run_all records
that report in the suite's place.  Bad arguments -- a negative bound, an
unknown mode, no t samples, t samples that are not iterable, a numeric
sample that is not an int or Fraction, an rng that is not a
random.Random, t samples or an rng in symbolic mode, a config that is not
a VerifyConfig -- raise DomainError before any check runs (a bound of 0
still means skip); VerifyConfig rejects its own when it is built.

Numeric t samples are drawn as fractions p/q with 1 <= p, q <= 50 and
rejection-sampled past the bad set (vanishing entry denominators, vanishing
leading minors): a rejected sample is recorded and replaced, up to 100
attempts per slot.  With a fixed seed the sample stream, and with it the
whole report list, is identical from run to run.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from . import closed_form
from .errors import (
    CauchyLUError,
    DomainError,
    RetriesExhausted,
    SingularEntry,
    ZeroPivot,
    require_at_least,
)
from .formats import serialize_value
from .matrix import ExactMatrix, build_matrix, det_elimination, lu_doolittle
from .ratfunc import SYMBOLIC_T

MAX_SAMPLE_ATTEMPTS = 100

SUITE_LU_PRODUCT = "lu_product"
SUITE_FACTORS_MATCH = "factors_match"
SUITE_GAMMA = "gamma_identities"
SUITE_CHAIN = "chain_t1"


class Counterexample(NamedTuple):
    """One concrete index tuple where the two sides differ."""

    indices: dict
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"indices": dict(self.indices), "lhs": self.lhs, "rhs": self.rhs}


class VerificationReport(NamedTuple):
    """One suite's outcome, built once by ``_run`` when the suite ends."""

    suite: str
    range: dict
    mode: str
    t_samples: list
    discarded_t_samples: list
    passed: bool
    skipped: bool
    counterexample: Counterexample | None
    error: str | None
    elapsed_ms: float

    def to_dict(self) -> dict:
        # Key order is the wire format; elapsed_ms is left out because
        # timings would break byte-for-byte reproducibility of seeded runs.
        found = self.counterexample
        wire = self._asdict()
        del wire["elapsed_ms"]
        wire.update(
            range=dict(self.range),
            t_samples=list(self.t_samples),
            discarded_t_samples=list(self.discarded_t_samples),
            counterexample=None if found is None else found.to_dict(),
        )
        return wire


class _VerifyBounds(NamedTuple):
    seed: int = 0
    s_max_symbolic: int = 6
    s_max_numeric: int = 12
    s_max_factors_numeric: int = 10
    n_t_samples: int = 20
    gamma_max: int = 8
    chain_max: int = 20
    chain_elimination_cap: int = 12


class VerifyConfig(_VerifyBounds):
    """run_all's settings, checked when built and immutable after, so every
    instance run_all sees has passed the checks.  As for any NamedTuple,
    assigning a field or a new attribute raises AttributeError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        bounds = cfg._asdict()
        require_at_least(None, seed=bounds.pop("seed"))
        require_at_least(1, n_t_samples=bounds.pop("n_t_samples"))
        require_at_least(0, **bounds)
        return cfg

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)


def _sample_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 50), rng.randint(1, 50))


def _first(results) -> Counterexample | None:
    return next((found for found in results if found is not None), None)


def _differ(indices: dict, lhs, rhs) -> Counterexample | None:
    if lhs == rhs:
        return None
    return Counterexample(indices, serialize_value(lhs), serialize_value(rhs))


def _run(suite, range, mode, skip, results, t_samples=(), discarded=()) -> VerificationReport:
    """The one suite driver: time the checks and return the finished report.

    ``results`` is a lazy iterable of Counterexample-or-None, one per check;
    it is consumed only up to the first counterexample, and not at all when
    ``skip``.  ``t_samples`` and ``discarded`` are read once it has been
    consumed, so they may be lists that the checks fill as they run.  A
    CauchyLUError raised while consuming it propagates with ``exc.report``
    set to an error-only report for the same suite, range and mode, which
    run_all appends in place of the suite's own.
    """
    started = time.perf_counter()
    try:
        found = None if skip else _first(results)
    except CauchyLUError as exc:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        exc.report = VerificationReport(
            suite, range, mode, [], [], False, False, None, str(exc), elapsed_ms
        )
        raise
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    passed = not skip and found is None
    return VerificationReport(
        suite, range, mode, list(t_samples), list(discarded), passed, skip, found, None, elapsed_ms
    )


def _border(rows, s: int) -> list:
    """The border of the leading s-by-s block of a table of rows: column s
    above the diagonal, top to bottom, then row s, left to right."""
    return [*(row[s - 1] for row in rows[: s - 1]), *rows[s - 1][:s]]


def _verify_sizes(suite, s_max, mode, t_samples, n_samples, rng, build):
    """Compare the sides ``build(t)`` assembles at s_max, one border at a time.

    ``build(t)`` lists (label, lhs, rhs), each side a table of rows.  It
    runs once at the symbolic t, which takes no ``t_samples`` or ``rng``, or
    once per numeric sample t: the provided ``t_samples`` first, then draws
    from ``rng``.  Each sample is recorded, as text, as accepted or, when
    ``build(t)`` raises SingularEntry/ZeroPivot, as discarded, and then a
    fresh one takes its place.  A side that is not s_max by s_max fails
    first, its indices marked ``"check": "shape"`` and both sides' shapes as
    lhs and rhs.  Then for each size s = 1..s_max and each side in turn, the
    border of the leading s-by-s block (``_border``) is gathered on both
    sides as one list, and the two lists are compared with one ``!=``; only
    when they differ is the first differing entry looked up.  So entries are
    met by size s = max(i, l), then side, then row-major: the first
    difference is the one a check of each leading s-by-s block in turn would
    find first.  In numeric mode the indices also name the t.
    """
    if t_samples is not None:
        try:
            samples = iter(t_samples)
        except TypeError:
            raise DomainError(f"t_samples must be iterable, got {t_samples!r}") from None
        t_samples = list(samples)
        n_samples = len(t_samples)
    require_at_least(0, s_max=s_max)
    require_at_least(1, samples=n_samples)
    if mode not in ("symbolic", "numeric"):
        raise DomainError(f"mode must be 'symbolic' or 'numeric', got {mode!r}")
    if mode == "symbolic" and (t_samples is not None or rng is not None):
        raise DomainError("symbolic mode takes no t_samples or rng")
    if not (rng is None or isinstance(rng, random.Random)):
        raise DomainError(f"rng must be a random.Random, got {rng!r}")
    for t in t_samples or ():
        if not isinstance(t, (int, Fraction)):
            raise DomainError(f"numeric t samples must be ints or Fractions, got {t!r}")
    accepted, discarded = [], []

    def builds():
        if mode == "symbolic":
            yield {}, build(SYMBOLIC_T)
            return
        draw = random.Random("resample") if rng is None else rng
        for _ in range(n_samples):
            for _ in range(MAX_SAMPLE_ATTEMPTS):
                t = t_samples.pop(0) if t_samples else _sample_rational(draw)
                try:
                    built = build(t)
                except (SingularEntry, ZeroPivot):
                    discarded.append(str(t))
                    continue
                accepted.append(str(t))
                break
            else:
                raise RetriesExhausted(MAX_SAMPLE_ATTEMPTS)
            yield {"t": str(t)}, built

    def checks():
        for base, sides in builds():
            for label, lhs, rhs in sides:
                shapes = [f"{len(rows)}x{len(rows[0])}" for rows in (lhs, rhs)]
                if shapes != [f"{s_max}x{s_max}"] * 2:
                    yield Counterexample({"s": s_max, **base, **label, "check": "shape"}, *shapes)
            for s in range(1, s_max + 1):
                for label, lhs, rhs in sides:
                    left, right = _border(lhs, s), _border(rhs, s)
                    if left != right:
                        k = next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)
                        i, l = (k + 1, s) if k < s - 1 else (s, k - s + 2)
                        indices = {"s": s, **base, **label, "i": i, "l": l}
                        yield _differ(indices, left[k], right[k])

    return _run(suite, {"s_max": s_max}, mode, s_max < 1, checks(), accepted, discarded)


def verify_lu_product(
    s_max: int,
    mode: str = "symbolic",
    t_samples=None,
    n_samples: int = 20,
    rng: random.Random | None = None,
) -> VerificationReport:
    """Check that the closed-form factors multiply back to the matrix.

    Entrywise exact equality of (lower factor) @ (upper factor) against the
    built matrix, one leading block s = 1..s_max at a time, symbolically or
    at numeric t samples, and that the factors are triangular.
    """

    def build(t):
        lower = closed_form.build_L(s_max, t)
        upper = closed_form.build_U(s_max, t)
        target = build_matrix(s_max, t)
        # each factor against its rows with the other triangle read as 0;
        # the product is taken of those triangles, so an entry off them
        # is named by its factor check, at a size no larger.  The 0 is the
        # field's, so neither triangle is lifted into the field again.
        zero = type(target.rows[0][0])(0)
        tri_lower = [row[: i + 1] + (zero,) * (s_max - i - 1) for i, row in enumerate(lower.rows)]
        tri_upper = [(zero,) * i + row[i:] for i, row in enumerate(upper.rows)]
        product = ExactMatrix(tri_lower) @ ExactMatrix(tri_upper)
        return [
            ({"factor": "L"}, lower.rows, tri_lower),
            ({"factor": "U"}, upper.rows, tri_upper),
            ({}, product.rows, target.rows),
        ]

    return _verify_sizes(SUITE_LU_PRODUCT, s_max, mode, t_samples, n_samples, rng, build)


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

    def build(t):
        factors = lu_doolittle(build_matrix(s_max, t))
        return [
            ({"factor": "L"}, closed_form.build_L(s_max, t).rows, factors.L.rows),
            ({"factor": "U"}, closed_form.build_U(s_max, t).rows, factors.U.rows),
        ]

    return _verify_sizes(SUITE_FACTORS_MATCH, s_max, mode, t_samples, n_samples, rng, build)


def verify_gamma_identities(index_max: int = 8) -> VerificationReport:
    """Check both Gamma-product identities over the full index grid.

    Exact polynomial equality in Q[t] of the literal product against its
    rising-factorial form, for the row identity on (i, j) and the column
    identity on (j, l), every index running over 1..index_max.  Each side
    is read from a running prefix (``gamma_sides_left``/``gamma_sides_right``),
    one stream per i or l, so a check costs O(1) polynomial products; the
    checks still run i, then j for the row identity and j, then l for the
    column identity.  A stream that ends before j = index_max fails at the
    first missing j, marked ``"check": "length"``, with the number of pairs
    it gave as lhs and index_max as rhs.
    """
    require_at_least(0, index_max=index_max)
    indices = range(1, index_max + 1)

    def check(where, pair):
        if pair is None:
            return Counterexample({**where, "check": "length"}, str(where["j"] - 1), str(index_max))
        return _differ(where, *pair)

    def checks():
        for i in indices:
            row = closed_form.gamma_sides_left(i, index_max)
            for j in indices:
                yield check({"identity": "left", "i": i, "j": j}, next(row, None))
        # one prefix stream per l, advanced in lockstep: j outer, l inner
        columns = [closed_form.gamma_sides_right(l, index_max) for l in indices]
        for j in indices:
            for l, column in zip(indices, columns):
                yield check({"identity": "right", "j": j, "l": l}, next(column, None))

    bounds = {"i_max": index_max, "j_max": index_max, "l_max": index_max}
    return _run(SUITE_GAMMA, bounds, "symbolic", index_max < 1, checks())


def verify_chain(s_max: int = 20, elimination_cap: int = 12) -> VerificationReport:
    """Check the six t=1 expressions against each other and the determinant.

    For each s: all six chain values must agree, the last must be positive
    and equal the diagonal-product determinant at t=1, and -- up to the
    elimination cap -- equal the Gaussian-elimination determinant as well.
    """

    def checks():
        for s in range(1, s_max + 1):
            values = closed_form.chain_t1(s).values
            for m, other in enumerate(values[1:], start=2):
                yield _differ({"s": s, "expressions": [1, m]}, values[0], other)
            value = values[5]
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
    require_at_least(0, **bounds)
    return _run(SUITE_CHAIN, bounds, "numeric", s_max < 1, checks(), ["1"])


def run_all(config: VerifyConfig | None = None) -> list[VerificationReport]:
    """Run every suite with per-suite seeded sampling; nothing aborts early.

    A suite that raises (e.g. RetriesExhausted) is reported as failed with
    the error message; the remaining suites still run.  Only None selects
    the default config; anything else that is not a VerifyConfig raises
    DomainError before any suite runs.
    """
    cfg = VerifyConfig() if config is None else config
    if not isinstance(cfg, VerifyConfig):
        raise DomainError(f"run_all needs a VerifyConfig or None, got {cfg!r}")

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
        attempt(verify_gamma_identities, cfg.gamma_max),
        attempt(verify_chain, cfg.chain_max, cfg.chain_elimination_cap),
    ]
