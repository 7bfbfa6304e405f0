"""Command-line interface.

Subcommands: ``det`` (determinant, numeric or symbolic), ``lu`` (the two
triangular factors, optionally compared against elimination), ``chain`` (the
six t=1 expressions per size), ``verify`` (all identity suites), ``bench``
(closed form vs elimination timings).

``--json`` switches any subcommand to machine-readable stdout; errors go to
stderr.  Exit codes: 0 all verdicts pass, 1 any computational failure or
mismatch, 2 usage errors.  t is accepted only as an exact fraction ``p/q``
(or a bare integer) -- decimals are rejected, nothing is ever rounded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction

from .closed_form import build_L, build_U, chain_t1, det_closed
from .errors import CauchyLUError
from .formats import serialize_value
from .matrix import ExactMatrix, build_matrix, det_elimination, lu_doolittle
from .ratfunc import SYMBOLIC_T
from .rational import parse_rational
from .verify import VerifyConfig, run_all

DET_ORACLE_CAP_NUMERIC = 12
DET_ORACLE_CAP_SYMBOLIC = 6
BENCH_WARMUP = 3
BENCH_REPS = 5


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


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except CauchyLUError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _matrix_lists(m: ExactMatrix) -> list[list[str]]:
    return [[serialize_value(x) for x in row] for row in m.rows]


def _format_matrix(m: ExactMatrix) -> str:
    rows = ", ".join("[" + ", ".join(serialize_value(x) for x in row) + "]" for row in m.rows)
    return f"[{rows}]"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_det(args) -> int:
    symbolic = args.symbolic
    t = SYMBOLIC_T if symbolic else (args.t if args.t is not None else Fraction(1))
    value = det_closed(args.s, t)
    cap = DET_ORACLE_CAP_SYMBOLIC if symbolic else DET_ORACLE_CAP_NUMERIC
    oracle = None
    match = None
    if args.s <= cap:
        oracle = det_elimination(build_matrix(args.s, t))
        match = oracle == value
    if args.json:
        _emit_json(
            {
                "s": args.s,
                "mode": "symbolic" if symbolic else "numeric",
                "t": None if symbolic else serialize_value(t),
                "determinant": serialize_value(value),
                "oracle": serialize_value(oracle) if oracle is not None else None,
                "match": match,
            }
        )
    else:
        print(serialize_value(value))
        if oracle is not None:
            verdict = "match" if match else "MISMATCH"
            print(f"elimination oracle: {serialize_value(oracle)} ({verdict})")
    if match is False:
        print("error: closed form disagrees with elimination", file=sys.stderr)
        return 1
    return 0


def cmd_lu(args) -> int:
    symbolic = args.symbolic or args.t is None
    t = SYMBOLIC_T if symbolic else args.t
    lower = build_L(args.s, t)
    upper = build_U(args.s, t)
    compare = None
    if args.compare:
        factors = lu_doolittle(build_matrix(args.s, t))
        compare = {
            "L": factors.L,
            "U": factors.U,
            "match": lower == factors.L and upper == factors.U,
        }
    if args.json:
        payload = {
            "s": args.s,
            "mode": "symbolic" if symbolic else "numeric",
            "t": None if symbolic else serialize_value(t),
            "L": _matrix_lists(lower),
            "U": _matrix_lists(upper),
        }
        if compare is not None:
            payload["compare"] = {
                "L": _matrix_lists(compare["L"]),
                "U": _matrix_lists(compare["U"]),
                "match": compare["match"],
            }
        _emit_json(payload)
    else:
        print(f"L = {_format_matrix(lower)}")
        print(f"U = {_format_matrix(upper)}")
        if compare is not None:
            print(f"elimination L = {_format_matrix(compare['L'])}")
            print(f"elimination U = {_format_matrix(compare['U'])}")
            print(f"compare: {'match' if compare['match'] else 'MISMATCH'}")
    if compare is not None and not compare["match"]:
        print("error: closed-form factors disagree with elimination", file=sys.stderr)
        return 1
    return 0


def cmd_chain(args) -> int:
    rows = [chain_t1(s) for s in range(1, args.s + 1)]
    all_equal = all(row.all_equal for row in rows)
    if args.json:
        _emit_json(
            {
                "rows": [
                    {
                        "s": row.s,
                        "values": [serialize_value(v) for v in row.values],
                        "equal": row.all_equal,
                    }
                    for row in rows
                ],
                "all_equal": all_equal,
            }
        )
    else:
        for row in rows:
            verdict = "agree" if row.all_equal else "DISAGREE"
            values = "  ".join(serialize_value(v) for v in row.values)
            print(f"s={row.s}: {values}  [{verdict}]")
    if not all_equal:
        print("error: chain expressions disagree", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        seed=args.seed,
        s_max_symbolic=args.s_max_symbolic,
        s_max_numeric=args.s_max_numeric,
        s_max_factors_numeric=args.s_max_factors_numeric,
        n_t_samples=args.samples,
        gamma_max=args.gamma_max,
        chain_max=args.chain_max,
        chain_elimination_cap=args.chain_elim_cap,
    )
    reports = run_all(cfg)
    failed = [r for r in reports if not r.passed and not r.skipped]
    if args.json:
        _emit_json(
            {
                "seed": cfg.seed,
                "all_passed": not failed,
                "reports": [r.to_dict() for r in reports],
            }
        )
    else:
        for r in reports:
            status = "PASS" if r.passed else ("SKIP" if r.skipped else "FAIL")
            bounds = ", ".join(f"{k}={v}" for k, v in r.range.items())
            print(f"[{status}] {r.suite} ({r.mode}; {bounds}) {r.elapsed_ms:.1f} ms")
            if r.counterexample is not None:
                c = r.counterexample
                print(f"        counterexample {c.indices}: {c.lhs} != {c.rhs}")
            if r.error is not None:
                print(f"        error: {r.error}")
        print(f"{len(reports) - len(failed)}/{len(reports)} suites passed or skipped")
    return 1 if failed else 0


def _median_ms(fn) -> float:
    for _ in range(BENCH_WARMUP):
        fn()
    times = []
    for _ in range(BENCH_REPS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def cmd_bench(args) -> int:
    # Equality is asserted for every size before any timing is printed:
    # a benchmark of wrong answers is meaningless.
    matrices = []
    for s in range(1, args.s + 1):
        m = build_matrix(s, 1)
        if det_closed(s, 1) != det_elimination(m):
            print(f"error: value mismatch at s={s}", file=sys.stderr)
            return 1
        matrices.append(m)
    rows = []
    for s, m in enumerate(matrices, start=1):
        closed_ms = _median_ms(lambda s=s: det_closed(s, 1))
        elim_ms = _median_ms(lambda m=m: det_elimination(m))
        rows.append({"s": s, "closed_ms": closed_ms, "elimination_ms": elim_ms})
    if args.json:
        _emit_json({"rows": rows})
    else:
        print(f"{'s':>3}  {'closed (ms)':>12}  {'elimination (ms)':>17}")
        for row in rows:
            print(f"{row['s']:>3}  {row['closed_ms']:>12.3f}  {row['elimination_ms']:>17.3f}")
    return 0


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
    # A negative cap is a usage error, never a silent skip.
    cap = _int_at_least(0)
    verify.add_argument("--s-max-symbolic", type=cap, default=defaults.s_max_symbolic)
    verify.add_argument("--s-max-numeric", type=cap, default=defaults.s_max_numeric)
    verify.add_argument(
        "--s-max-factors-numeric", type=cap, default=defaults.s_max_factors_numeric
    )
    verify.add_argument("--samples", type=_int_at_least(1), default=defaults.n_t_samples)
    verify.add_argument("--gamma-max", type=cap, default=defaults.gamma_max)
    verify.add_argument("--chain-max", type=cap, default=defaults.chain_max)
    verify.add_argument("--chain-elim-cap", type=cap, default=defaults.chain_elimination_cap)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=cmd_verify)

    bench = sub.add_parser("bench", help="closed form vs elimination timings at t=1")
    bench.add_argument("--s", type=_int_at_least(1), required=True, help="largest size")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CauchyLUError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
