"""Command-line interface.

Subcommands: ``det`` (determinant, numeric or symbolic), ``lu`` (the two
triangular factors, optionally compared against elimination), ``chain`` (the
six t=1 expressions per size), ``verify`` (all identity suites), ``bench``
(closed form vs elimination timings).

Each ``cmd_*`` returns a ``Result`` and prints nothing; ``main`` alone
renders it: ``--json`` or text on stdout, one ``error:`` line on stderr, and
exit 0 when every verdict passes, 1 on a mismatch or a ``CauchyLUError``
(``SizeCapExceeded`` above a command's ``--s`` cap, ``--t`` digit cap or a
``verify`` flag's cap), 2 on usage errors.
t is accepted only as an exact fraction ``p/q`` (or a bare integer) in
ASCII digits -- decimals are rejected, nothing is ever rounded.  A negative
t may follow ``--t`` as its own argument (``--t -1/3``) or be attached
(``--t=-1/3``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import NamedTuple, Sequence

from .closed_form import build_L, build_U, chain_t1, det_closed
from .errors import CauchyLUError, SizeCapExceeded
from .formats import serialize_value
from .matrix import ExactMatrix, build_matrix, det_elimination, lu_doolittle
from .ratfunc import SYMBOLIC_T
from .rational import format_int, parse_rational
from .verify import VerifyConfig, run_all

# The largest --s each command accepts.  Each finishes in seconds at its cap.
# Symbolic, through ``main`` with the cap lifted (Python 3.11, 2-vCPU Xeon,
# best of 3): ``det --symbolic``, which runs the elimination oracle at every
# size, takes 0.40 s at s=16 and 1.2 s at s=20, and ``lu --symbolic
# --compare`` 0.25 s and 0.63 s, so ``det_elimination`` rather than
# Doolittle bounds any higher symbolic cap.  ``det --s 80`` takes 0.11 s at
# t = 1 and 0.19-0.20 s at t = 37/11, 3/49 and 49/3.
S_CAP_SYMBOLIC = 16
S_CAP_NUMERIC = 80
S_CAP_CHAIN = 100
S_CAP_BENCH = 30
# The most decimal digits --t accepts in p or q, for t = p/q in lowest terms.
# Numeric work grows with them.  At the numeric cap s = 80, through ``main``
# (Python 3.11, 2-vCPU Xeon, CPU time, best of 3), ``det`` and ``lu --compare``
# take 0.20 and 0.42 s at t = 37/11, and 1.8 and 3.3 s at the 10-digit
# t = 9876543211/1234567891.
T_DIGITS_CAP = 10
# The largest --gamma-max and --samples verify accepts; its size flags take
# the S_CAP_* above.  Through ``main`` (Python 3.11, 2-vCPU Xeon, CPU time,
# best of 3) with the other suites off, --gamma-max 20, 24, 28 and 32 take
# 0.06, 0.11, 0.17 and 0.28 s; the Gamma suite alone at 40 takes 0.86 s.
# With every verify flag at its cap the run takes 43 s (one run): 18 and
# 20 s for the two numeric suites at s = 80 (about 0.4 s per t sample each),
# 3.6 s for the chain to 100 with elimination to 80, 0.3 s for the Gamma
# grid and 0.3 s for the two symbolic suites at s = 16.
GAMMA_CAP = 32
SAMPLES_CAP = 50
# Each verify flag, by the VerifyConfig field it sets: its argparse dest (the
# flag is the dest with dashes) and its cap.
_VERIFY_FLAGS = {
    "s_max_symbolic": ("s_max_symbolic", S_CAP_SYMBOLIC),
    "s_max_numeric": ("s_max_numeric", S_CAP_NUMERIC),
    "s_max_factors_numeric": ("s_max_factors_numeric", S_CAP_NUMERIC),
    "n_t_samples": ("samples", SAMPLES_CAP),
    "gamma_max": ("gamma_max", GAMMA_CAP),
    "chain_max": ("chain_max", S_CAP_CHAIN),
    "chain_elimination_cap": ("chain_elim_cap", S_CAP_NUMERIC),
}
BENCH_WARMUP = 3
BENCH_REPS = 5  # odd, so the middle sorted time is the median


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _negative_t_attached(argv: Sequence[str]) -> list[str]:
    """argv with ``--t -p/q`` written ``--t=-p/q``.

    argparse takes a separate ``-1/3`` for an option, not for the value of
    ``--t`` (only plain negative numbers pass), so a value that starts with
    ``-`` and a digit is attached to its ``--t``.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--t" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--t={arg}"
        else:
            out.append(arg)
    return out


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except CauchyLUError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _matrix_lists(m: ExactMatrix) -> list[list[str]]:
    return [[serialize_value(x) for x in row] for row in m.rows]


def _format_matrix(rows: list[list[str]]) -> str:
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _require_size(s: int, cap: int) -> None:
    if s > cap:
        raise SizeCapExceeded(s, cap)


def _case(args, symbolic: bool):
    """t for ``det`` and ``lu``, and the JSON fields that name the case."""
    _require_size(args.s, S_CAP_SYMBOLIC if symbolic else S_CAP_NUMERIC)
    if symbolic:
        return SYMBOLIC_T, {"s": args.s, "mode": "symbolic", "t": None}
    t = args.t if args.t is not None else Fraction(1)
    digits = len(format_int(max(abs(t.numerator), t.denominator)))
    if digits > T_DIGITS_CAP:
        raise SizeCapExceeded(digits, T_DIGITS_CAP, "t digits")
    return t, {"s": args.s, "mode": "numeric", "t": serialize_value(t)}


class Result(NamedTuple):
    """A subcommand's outcome; only ``main`` prints it.

    ``payload`` is the ``--json`` document and ``lines`` the same result as
    text; without a payload nothing goes to stdout.  A result that is not
    ``ok`` exits 1, and prints its ``error``, if any, on stderr.
    """

    payload: dict | None = None
    lines: Sequence[str] = ()
    ok: bool = True
    error: str | None = None


def cmd_det(args) -> Result:
    t, payload = _case(args, args.symbolic)
    value = det_closed(args.s, t)
    oracle = det_elimination(build_matrix(args.s, t))
    match = oracle == value
    payload.update(determinant=serialize_value(value), oracle=serialize_value(oracle), match=match)
    verdict = f"elimination oracle: {payload['oracle']} ({'match' if match else 'MISMATCH'})"
    lines = [payload["determinant"], verdict]
    return Result(payload, lines, ok=match, error="closed form disagrees with elimination")


def cmd_lu(args) -> Result:
    t, payload = _case(args, args.t is None)
    lower = build_L(args.s, t)
    upper = build_U(args.s, t)
    payload.update(L=_matrix_lists(lower), U=_matrix_lists(upper))
    lines = [f"L = {_format_matrix(payload['L'])}", f"U = {_format_matrix(payload['U'])}"]
    if not args.compare:
        return Result(payload, lines)
    factors = lu_doolittle(build_matrix(args.s, t))
    match = lower == factors.L and upper == factors.U
    compare = {"L": _matrix_lists(factors.L), "U": _matrix_lists(factors.U), "match": match}
    payload["compare"] = compare
    lines.append(f"elimination L = {_format_matrix(compare['L'])}")
    lines.append(f"elimination U = {_format_matrix(compare['U'])}")
    lines.append(f"compare: {'match' if match else 'MISMATCH'}")
    return Result(payload, lines, ok=match, error="closed-form factors disagree with elimination")


def cmd_chain(args) -> Result:
    _require_size(args.s, S_CAP_CHAIN)
    rows = [
        {"s": row.s, "values": [serialize_value(v) for v in row.values], "equal": row.all_equal}
        for row in map(chain_t1, range(1, args.s + 1))
    ]
    lines = [
        f"s={row['s']}: {'  '.join(row['values'])}  [{'agree' if row['equal'] else 'DISAGREE'}]"
        for row in rows
    ]
    all_equal = all(row["equal"] for row in rows)
    payload = {"rows": rows, "all_equal": all_equal}
    return Result(payload, lines, ok=all_equal, error="chain expressions disagree")


def cmd_verify(args) -> Result:
    bounds = {}
    for field, (dest, cap) in _VERIFY_FLAGS.items():
        bounds[field] = getattr(args, dest)
        _require_size(bounds[field], cap)
    cfg = VerifyConfig(seed=args.seed, **bounds)
    reports = run_all(cfg)
    failed = [r for r in reports if not r.passed and not r.skipped]
    lines = []
    for r in reports:
        status = "PASS" if r.passed else ("SKIP" if r.skipped else "FAIL")
        bounds = ", ".join(f"{k}={v}" for k, v in r.range.items())
        lines.append(f"[{status}] {r.suite} ({r.mode}; {bounds}) {r.elapsed_ms:.1f} ms")
        if r.counterexample is not None:
            c = r.counterexample
            lines.append(f"        counterexample {c.indices}: {c.lhs} != {c.rhs}")
        if r.error is not None:
            lines.append(f"        error: {r.error}")
    lines.append(f"{len(reports) - len(failed)}/{len(reports)} suites passed or skipped")
    reports_json = [r.to_dict() for r in reports]
    payload = {"seed": cfg.seed, "all_passed": not failed, "reports": reports_json}
    return Result(payload, lines, ok=not failed)


def _median_ms(fn) -> float:
    for _ in range(BENCH_WARMUP):
        fn()
    times = []
    for _ in range(BENCH_REPS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return sorted(times)[BENCH_REPS // 2]


def cmd_bench(args) -> Result:
    _require_size(args.s, S_CAP_BENCH)
    # Equality is asserted for every size before any timing is printed:
    # a benchmark of wrong answers is meaningless.
    matrices = []
    for s in range(1, args.s + 1):
        m = build_matrix(s, 1)
        if det_closed(s, 1) != det_elimination(m):
            return Result(ok=False, error=f"value mismatch at s={s}")
        matrices.append(m)
    rows = []
    for s, m in enumerate(matrices, start=1):
        closed_ms = _median_ms(lambda s=s: det_closed(s, 1))
        elim_ms = _median_ms(lambda m=m: det_elimination(m))
        rows.append({"s": s, "closed_ms": closed_ms, "elimination_ms": elim_ms})
    lines = [f"{'s':>3}  {'closed (ms)':>12}  {'elimination (ms)':>17}"] + [
        f"{row['s']:>3}  {row['closed_ms']:>12.3f}  {row['elimination_ms']:>17.3f}" for row in rows
    ]
    return Result({"rows": rows}, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchylu",
        description="Exact LU factors and determinants of the matrix with "
        "entries 1/((2l)^2 - t^2(2i-1)^2), plus identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("det", help="determinant of the s x s matrix")
    det.add_argument("--s", type=_int_at_least(1), required=True, help="matrix size")
    mode = det.add_mutually_exclusive_group()
    mode.add_argument("--t", type=_rational_arg, help="exact t as p/q (default 1)")
    mode.add_argument("--symbolic", action="store_true", help="keep t symbolic")
    det.add_argument("--json", action="store_true")
    det.set_defaults(handler=cmd_det)

    lu = sub.add_parser("lu", help="closed-form LU factors")
    lu.add_argument("--s", type=_int_at_least(1), required=True, help="matrix size")
    mode = lu.add_mutually_exclusive_group()
    mode.add_argument("--t", type=_rational_arg, help="exact t as p/q (default: symbolic)")
    mode.add_argument("--symbolic", action="store_true", help="keep t symbolic (default)")
    lu.add_argument("--compare", action="store_true", help="also run elimination and compare")
    lu.add_argument("--json", action="store_true")
    lu.set_defaults(handler=cmd_lu)

    chain = sub.add_parser("chain", help="the six equivalent t=1 expressions per size")
    chain.add_argument("--s", type=_int_at_least(1), required=True, help="largest size")
    chain.add_argument("--json", action="store_true")
    chain.set_defaults(handler=cmd_chain)

    defaults = VerifyConfig()
    verify = sub.add_parser("verify", help="run every identity suite")
    verify.add_argument("--seed", type=_int_at_least(0), default=defaults.seed)
    for field, (dest, _) in _VERIFY_FLAGS.items():
        # A negative cap is a usage error, never a silent skip; verify needs
        # at least one t sample.
        minimum = 1 if field == "n_t_samples" else 0
        flag = "--" + dest.replace("_", "-")
        verify.add_argument(flag, type=_int_at_least(minimum), default=getattr(defaults, field))
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=cmd_verify)

    bench = sub.add_parser("bench", help="closed form vs elimination timings at t=1")
    bench.add_argument("--s", type=_int_at_least(1), required=True, help="largest size")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_negative_t_attached(argv))
    try:
        result = args.handler(args)
    except CauchyLUError as exc:
        result = Result(ok=False, error=str(exc))
    if result.payload is not None:
        print(json.dumps(result.payload, indent=2) if args.json else "\n".join(result.lines))
    if result.ok:
        return 0
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
    return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
