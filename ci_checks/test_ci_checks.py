"""Checks past Tier-1's sizes: ``python -I -m pytest -q ci_checks``.  -I ignores
PYTHONPATH and the user site, so this module and the fresh interpreters two
checks start import the package pip installed, as the console script does."""

import functools
import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cauchylu import SYMBOLIC_T as T, DomainError, ExactMatrix, binomial, build_L, build_matrix
from cauchylu import build_U, det_closed, det_elimination, entry_L, entry_U, factorial
from cauchylu import lu_doolittle, parse_value, rising_factorial, run_all, serialize_value


@functools.cache
def family(s, t):
    """(build_L, build_U, build_matrix) at (s, t), each built once per run."""
    return build_L(s, t), build_U(s, t), build_matrix(s, t)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter: pytest has loaded dataclasses and inspect."""
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_heavy_modules():
    """Importing the installed CLI loads no dataclasses, inspect or statistics

    Tier-1 checks src/ through PYTHONPATH; this checks the installed copy.
    Modules loaded before the import (by site) do not count."""
    run_fresh(
        "import sys; before = set(sys.modules); import cauchylu, cauchylu.cli; "
        "assert not {'dataclasses', 'inspect', 'statistics'} & (set(sys.modules) - before)"
    )


def test_exports_resolve_and_config_refuses_assignment():
    """The installed package's exports resolve and VerifyConfig refuses assignment

    Every name in cauchylu.__all__ exists; assigning a VerifyConfig field
    raises the NamedTuple's AttributeError, and loads no dataclasses."""
    run_fresh(
        "import sys; before = set(sys.modules); import cauchylu\n"
        "assert all(hasattr(cauchylu, name) for name in cauchylu.__all__)\n"
        "try: cauchylu.VerifyConfig().seed = 1; refused = False\n"
        "except AttributeError: refused = True\n"
        "assert refused and 'dataclasses' not in set(sys.modules) - before"
    )


def test_elimination_determinant_at_numeric_cap():
    """Elimination determinant at the numeric CLI cap matches the closed form

    Tier-1 runs the det oracle to s = 40.  At s = 80, t = 1 grows the contents
    elimination sets aside least, t = 3/49 (p < q) and t = 37/11 (p > q) most."""
    for t in (F(37, 11), F(1), F(3, 49)):
        assert det_elimination(family(80, t)[2]) == det_closed(80, t), t


def test_content_balanced_products():
    """Content-balanced inner products reproduce the matrix

    L @ U at s = 80 and Doolittle on a random 30 x 30 p/q matrix move each row
    of U's content onto L before clearing; Tier-1 stops at s = 40 and 7 x 7."""
    for t in (F(37, 11), F(1), F(3, 49)):
        L, U, M = family(80, t)
        assert L @ U == M, t
    rng = random.Random(1)
    m = ExactMatrix([[F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(30)] for _ in range(30)])
    L, U = lu_doolittle(m)
    assert L @ U == m


def test_shared_products_equal_entries_at_numeric_cap():
    """Factors built with shared products equal their entries one by one at the numeric CLI cap

    A build shares one table of running products; entry_L/entry_U outside a
    build multiply theirs afresh.  Tier-1 compares the two up to s = 40."""
    for t in (F(37, 11), F(3, 49)):
        for built, entry in zip(family(80, t), (entry_L, entry_U)):
            assert built == ExactMatrix([[entry(a, b, t) for b in range(1, 81)] for a in range(1, 81)]), t


def test_symbolic_elimination_determinant_at_12():
    """Symbolic elimination determinant matches the closed form at s = 12

    Tier-1's symbolic oracles stop at s = 8; s = 12 runs the RationalFunction
    row update of det_elimination further."""
    assert det_elimination(build_matrix(12, T)) == det_closed(12, T)


@pytest.mark.parametrize("s", [16, 20])
def test_symbolic_det_closed_matches_numeric_elimination(s):
    """Symbolic closed-form determinant at s = 16 and s = 20 matches numeric elimination at t = 37/11

    U's diagonal numerators are monomials c t^(2j-2), so all 49 (61) gcds of the
    running product have a monomial operand: GCDHEU runs at no point."""
    assert det_closed(s, T)(F(37, 11)) == det_elimination(build_matrix(s, F(37, 11)))


def test_symbolic_content_balanced_products_at_20():
    """Symbolic content-balanced inner products beyond the CLI cap

    At s = 20 over Q(t), L @ U and lu_doolittle move each row of U's content
    onto L and clear every line over one lcm; Tier-1 and the CLI stop at 16."""
    L, U, M = family(20, T)
    assert L @ U == M
    assert lu_doolittle(M) == (L, U)


def test_symbolic_doolittle_at_24():
    """Symbolic Doolittle at s = 24 matches the closed-form factors

    The size bound refuses the first GCDHEU point of 28 gcd pairs (33 points), each
    settled after its margin doubles once or twice; Tier-1 counts 7 at s = 16."""
    L, U, M = family(24, T)
    assert lu_doolittle(M) == (L, U)


def test_random_symbolic_doolittle_8x8():
    """Doolittle on a random 8 x 8 matrix over Q(t) reproduces it

    Entries (a t + b)/(c t^k + d), a, b, c, d in -9..9 (a, c != 0), k in 1..3, drawn
    row by row as in Tier-1's 6 x 6 test; GCDHEU settles all 239 pairs at their first point."""
    rng = random.Random(1)
    nonzero = [x for x in range(-9, 10) if x]

    def entry():
        a, b = rng.choice(nonzero), rng.randint(-9, 9)
        c, d, k = rng.choice(nonzero), rng.randint(-9, 9), rng.randint(1, 3)
        return (a * T + b) / (c * T**k + d)

    m = ExactMatrix([[entry() for _ in range(8)] for _ in range(8)])
    L, U = lu_doolittle(m)
    assert L @ U == m


def test_printed_values_parse_back():
    """Printed values at the CLI caps parse back to the same text

    Tier-1 round-trips numeric values up to s = 40; the s = 80 determinant is
    the largest text the CLI prints, past Python's 4300-digit int/str limit."""

    def payload(*argv):
        return json.loads(subprocess.run(["cauchylu", *argv, "--json"], capture_output=True, check=True).stdout)

    det, lu = payload("det", "--s", "80", "--t", "37/11"), payload("lu", "--s", "16")
    texts = [det["t"], det["determinant"], det["oracle"]]
    texts += [x for rows in (lu["L"], lu["U"]) for row in rows for x in row]
    assert all(serialize_value(parse_value(x)) == x for x in texts)


@pytest.mark.parametrize(
    "case",
    [(parse_value, "t^" + "9" * 12), (factorial, 2.5), (binomial, 5, 2.5), (parse_value, 5),
     (parse_value, b"1"), (build_matrix(2, 1).at, 1.5, 1), (lu_doolittle, 5), (det_elimination, [[1]]),
     (rising_factorial, 1.5, 2), (ExactMatrix, 5), (run_all, 5)],
    ids=lambda case: case[0].__name__,
)
def test_bad_input_is_a_domain_error(case):
    """Non-int counts and indices, inexact bases, non-matrices, non-configs and non-text parser input are DomainErrors

    The package's own DomainError, not a bare TypeError or AttributeError.
    The first case is a printed power past the parse cap: Polynomial is
    dense, so polynomial.POWER_CAP refuses it before any list is built."""
    call, *args = case
    with pytest.raises(DomainError):
        call(*args)


def test_zero_heavy_elimination_determinant():
    """Elimination determinant of zero-heavy 60 x 60 matrices

    det_elimination updates every row below the pivot, also by an exact zero;
    Tier-1 runs such matrices up to 30 x 30."""
    n = 60
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    identity = ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)])
    permutation = ExactMatrix([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    assert det_elimination(identity) == 1
    assert det_elimination(permutation) == sign
