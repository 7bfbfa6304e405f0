"""cauchylu benchmark: end-to-end passes in fresh interpreters, plus a traced run.

    python3 perfbench/run.py --workload {verify,symbolic,numeric,all}
                             --seed N --seconds S --trace {0,1}

Closed loop, one client: passes run one at a time, each in a fresh child
interpreter (``child.py``), so a cache cannot carry over from one pass to the
next.  Pass k uses seed N+k.  ``--trace 0`` measures the workload for S
seconds and reports pass_s, setup_s and peak_rss_mb (medians over passes).
``--trace 1`` runs the traced run: an untraced reference measurement and one
traced pass of every workload, reporting per-layer totals over the three.
``--workload all`` does both for every workload.  Every output is checked; a
failed check makes the exit code 1.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a results file
with the environment record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("verify", "symbolic", "numeric")
CHILD_TIMEOUT_S = 120
# The host's speed drifts by up to a half over minutes (shared cores), so each
# pass's times are rescaled to a host on which child.calibrate() takes this long.
REFERENCE_CALIBRATION_S = 0.1

SPAN_METRICS = (
    "matrix.build_matrix", "matrix.lu_doolittle", "matrix.matmul", "matrix.det_elimination",
    "closed_form.build_L", "closed_form.build_U", "closed_form.det_closed",
    "closed_form.det_t1", "closed_form.chain_t1", "closed_form.gamma",
    "verify.lu_product.symbolic", "verify.lu_product.numeric",
    "verify.factors_match.symbolic", "verify.factors_match.numeric",
    "verify.gamma_identities", "verify.chain_t1", "formats.serialize",
)
CALL_METRICS = {  # metric -> wrapped methods whose calls it counts
    "polynomial.mul_calls": ("polynomial.__mul__", "polynomial.__rmul__"),
    "polynomial.divmod_calls": ("polynomial.__divmod__",),
    "polynomial.gcd_calls": ("polynomial.gcd",),
    "ratfunc.mul_calls": ("ratfunc.__mul__", "ratfunc.__rmul__"),
    "ratfunc.add_calls": ("ratfunc.__add__", "ratfunc.__radd__"),
    "ratfunc.init_calls": ("ratfunc.__init__",),
}


class PassFailed(Exception):
    """A child interpreter crashed, timed out or printed no result."""


def run_pass(workload: str, seed: int, traced: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} seed {seed}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    before, after = result["calibration_s"]
    result["setup_wall_s"] = result["started"] - spawned - before
    result["pass_wall_s"] = result["ended"] - result["started"]
    result["scale"] = REFERENCE_CALIBRATION_S / ((before + after) / 2)
    result["setup_s"] = result["setup_wall_s"] * result["scale"]
    result["pass_s"] = result["pass_wall_s"] * result["scale"]
    return result


def measure(workload: str, base_seed: int, seconds: float) -> dict:
    """Untraced passes with seeds base, base+1, ... until ``seconds`` have passed."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, base_seed + len(passes)))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    if workload == "verify":
        # Determinism: the first seed again, untimed; stdout must be byte-identical.
        attempted += 1
        if run_pass(workload, base_seed)["stdout_sha256"] != passes[0]["stdout_sha256"]:
            failed += 1
            problems.append(f"verify --seed {base_seed}: stdout differs between two runs")
    return {
        "passes": len(passes),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "pass_wall_s": statistics.median(p["pass_wall_s"] for p in passes),
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "discarded_t": sum(p["discarded"] for p in passes),
        "problems": problems,
        "samples": {k: [p[k] for p in passes] for k in
                    ("pass_s", "setup_s", "pass_wall_s", "setup_wall_s", "calibration_s",
                     "rss_kb", "discarded")},
    }


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced pass; times scaled like pass_s."""
    trace, scale = result["trace"], result["scale"]
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    for name, started, ended, _parent in trace["spans"]:
        totals[name] += ended - started
    out = {f"{name}_s": totals[name] * scale for name in SPAN_METRICS}
    for metric, keys in CALL_METRICS.items():
        out[metric] = sum(trace["calls"].get(k, 0) for k in keys)
    out["polynomial.self_s"] = trace["self_s"]["polynomial"] * scale
    out["ratfunc.self_s"] = trace["self_s"]["ratfunc"] * scale
    out["polynomial.max_degree"] = trace["max_degree"]
    out["polynomial.max_coeff_bits"] = trace["max_coeff_bits"]
    return out


def traced_run(base_seed: int, reference: dict) -> dict:
    """One traced pass per workload; per-layer metrics summed over the three."""
    per_workload, overhead, spans, problems = {}, {}, {}, []
    attempted = failed = 0
    for workload in WORKLOADS:
        result = run_pass(workload, base_seed, traced=True)
        attempted += result["attempted"]
        failed += result["failed"]
        problems += result["problems"]
        metrics = layer_metrics(result)
        metrics["verify.discarded_t"] = result["discarded"] if workload == "verify" else 0
        per_workload[workload] = metrics
        overhead[workload] = result["pass_s"] / reference[workload]["pass_s"]
        spans[workload] = result["trace"]["spans"]
    totals = {}
    for metric in (next(iter(per_workload.values()), {})):
        values = [m[metric] for m in per_workload.values()]
        totals[metric] = max(values) if metric.endswith(("max_degree", "max_coeff_bits")) else sum(values)
    return {"totals": totals, "per_workload": per_workload, "overhead": overhead,
            "spans": spans, "attempted": attempted, "failed": failed, "problems": problems}


# -- reporting ----------------------------------------------------------------

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {"_s": "s", "_calls": "count", "max_degree": "degree", "max_coeff_bits": "bits",
         "discarded_t": "count"}


def unit_of(metric: str) -> str:
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, measured: dict, traced: dict | None) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cauchylu").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "passes": {w: m["passes"] for w, m in measured.items()},
        "trace_overhead": traced["overhead"] if traced else None,
    }


def print_summary(workload: str, m: dict) -> None:
    print(f"{workload:<9} pass_s {m['pass_s']:.4f} s (median of {m['passes']})"
          f"  setup_s {m['setup_s']:.4f} s  peak_rss_mb {m['peak_rss_mb']:.1f} MB"
          f"  failed_frac {m['failed_frac']:g} ({m['failed']}/{m['attempted']})"
          f"  discarded_t {m['discarded_t']}")


def print_layers(traced: dict) -> None:
    names = list(traced["per_workload"])
    print(f"{'per-layer metric':<34}" + "".join(f"{w:>14}" for w in names) + f"{'total':>14}")
    for metric, total in traced["totals"].items():
        cells = "".join(f"{traced['per_workload'][w][metric]:>14.6g}" for w in names)
        print(f"{metric:<34}{cells}{total:>14.6g}  {unit_of(metric)}")
    print("trace overhead (traced pass / untraced median pass_s): "
          + ", ".join(f"{w} {x:.2f}x" for w, x in traced["overhead"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "cauchylu" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cauchylu'}", file=sys.stderr)
        return 2

    try:
        if args.workload == "all":
            measured = {w: measure(w, args.seed, args.seconds) for w in WORKLOADS}
        elif args.trace:
            # Untraced reference for the overhead ratio: half the run's seconds,
            # leaving the other half for the traced passes.
            measured = {w: measure(w, args.seed, args.seconds / 6) for w in WORKLOADS}
        else:
            measured = {args.workload: measure(args.workload, args.seed, args.seconds)}
        traced = traced_run(args.seed, measured) if args.trace else None
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for workload, m in measured.items():
        print_summary(workload, m)
    if traced:
        print_layers(traced)
    problems = [p for m in measured.values() for p in m["problems"]]
    problems += traced["problems"] if traced else []
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)

    attempted = sum(m["attempted"] for m in measured.values())
    failed = sum(m["failed"] for m in measured.values())
    if traced:
        attempted += traced["attempted"]
        failed += traced["failed"]
    metrics = {}
    if args.workload == "all":
        metrics = {f"{w}.{k}": {"value": m[k], "unit": u}
                   for w, m in measured.items() for k, u in END_TO_END_UNITS.items()}
    elif not traced:
        metrics = {k: {"value": measured[args.workload][k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    if traced:
        metrics.update({k: {"value": v, "unit": unit_of(k)} for k, v in traced["totals"].items()})

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args.seed, measured, traced),
        "workloads": measured,
        "layers": {k: traced[k] for k in ("totals", "per_workload", "overhead")} if traced else None,
        "problems": problems,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        Path(f"{stem}-spans.json").write_text(json.dumps(traced["spans"]) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
