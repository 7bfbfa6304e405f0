"""One benchmark pass, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py <workload> <seed> <traced 0|1>

Set-up (interpreter start, ``import cauchylu``, inputs, tracer) ends at the
first job's start.  The jobs run back to back; every output is checked only
after the last job ends, so checking is never timed.  The last line of
stdout is one JSON object with the clock readings (``time.monotonic``, which
the parent shares), the job accounting, and the trace when asked for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.set_int_max_str_digits(0)  # numeric determinants run to ~10^5 digits

# Package functions are looked up on the module at call time, so the
# tracer's rebinding of them is seen here too.
import cauchylu  # noqa: E402
import cauchylu.cli  # noqa: E402
from cauchylu import SYMBOLIC_T, RetriesExhausted, SingularEntry, ZeroPivot  # noqa: E402

import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

CALIBRATION_LOOPS = 1_500_000  # about 0.1 s of integer bytecode on a 2020s x86 core
S_SYMBOLIC = 10
S_NUMERIC = 40
NUMERIC_SAMPLES = 3
MAX_SAMPLE_ATTEMPTS = 100  # verify's rejection rule: resample past singular t


class Job:
    """A timed ``run(job)`` plus the untimed ``check(job)`` of its output,
    which returns the problems found."""

    def __init__(self, run, check):
        self.run = run
        self.check = check
        self.output = None
        self.error = None
        self.discarded: list[str] = []


# -- workloads ----------------------------------------------------------------


def verify_jobs(seed: int) -> list[Job]:
    def run(job):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cauchylu.cli.main(["verify", "--seed", str(seed), "--json"])
        return code, out.getvalue()

    def check(job):
        code, text = job.output
        report = json.loads(text)
        job.discarded = [t for r in report["reports"] for t in r["discarded_t_samples"]]
        failing = [r["suite"] + "/" + r["mode"] for r in report["reports"] if not r["passed"]]
        if code != 0 or report["all_passed"] is not True or failing:
            return [f"verify --seed {seed}: exit {code}, failing suites {failing}"]
        return []

    return [Job(run, check)]


def pipeline(s: int, t) -> dict:
    m = cauchylu.build_matrix(s, t)
    factors = cauchylu.lu_doolittle(m)
    lower = cauchylu.build_L(s, t)
    upper = cauchylu.build_U(s, t)
    product = lower @ upper
    closed = cauchylu.det_closed(s, t)
    eliminated = cauchylu.det_elimination(m)
    values = [x for f in (lower, upper) for row in f.rows for x in row] + [closed]
    texts = [cauchylu.serialize_value(x) for x in values]
    return dict(s=s, t=t, m=m, factors=factors, lower=lower, upper=upper,
                product=product, closed=closed, eliminated=eliminated,
                values=values, texts=texts)


def check_pipeline(job: Job) -> list[str]:
    out = job.output
    s, t = out["s"], out["t"]
    where = f"s={s} t={'t' if t is SYMBOLIC_T else t}"
    problems = []
    if out["factors"].L != out["lower"]:
        problems.append(f"{where}: build_L != Doolittle L")
    if out["factors"].U != out["upper"]:
        problems.append(f"{where}: build_U != Doolittle U")
    if out["product"] != out["m"]:
        problems.append(f"{where}: L@U != M")
    if t is SYMBOLIC_T:
        num, den = oracle.cauchy_det_symbolic(s)
        agrees = lambda d: oracle.matches_symbolic(d, num, den)  # noqa: E731
    else:
        expected = oracle.cauchy_det(s, t)
        agrees = lambda d: d == expected  # noqa: E731
    for name in ("closed", "eliminated"):
        if not agrees(out[name]):
            problems.append(f"{where}: det_{name} != Cauchy determinant")
    for text, value in zip(out["texts"], out["values"]):
        if cauchylu.parse_value(text) != value:
            problems.append(f"{where}: serialized {text[:60]!r} does not parse back")
            break
    return problems


def symbolic_jobs(seed: int) -> list[Job]:
    # The inputs do not depend on the seed: s and t are fixed.
    return [Job(lambda job: pipeline(S_SYMBOLIC, SYMBOLIC_T), check_pipeline)]


def numeric_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"{seed}:numeric")

    def sampled(job):
        for _ in range(MAX_SAMPLE_ATTEMPTS):
            t = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            try:
                return pipeline(S_NUMERIC, t)
            except (SingularEntry, ZeroPivot):
                job.discarded.append(str(t))
        raise RetriesExhausted(MAX_SAMPLE_ATTEMPTS)

    jobs = [Job(sampled, check_pipeline) for _ in range(NUMERIC_SAMPLES)]
    jobs.append(Job(lambda job: pipeline(S_NUMERIC, Fraction(1)), check_pipeline))

    def check_chain(job):
        s, value, chain = job.output
        if not chain.all_equal or value != chain.values[-1]:
            return [f"chain_t1({s}): expressions disagree"]
        if not value > 0 or value != oracle.cauchy_det(s, Fraction(1)):
            return [f"det_t1({s}) != Cauchy determinant at t=1"]
        return []

    for s in range(1, S_NUMERIC + 1):
        jobs.append(Job(lambda job, s=s: (s, cauchylu.det_t1(s), cauchylu.chain_t1(s)), check_chain))
    return jobs


WORKLOADS = {"verify": verify_jobs, "symbolic": symbolic_jobs, "numeric": numeric_jobs}


# -- one pass -----------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed loop of small-int bytecode that allocates nothing
    the garbage collector tracks, so only the host's speed can change it."""
    started = time.monotonic()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.monotonic() - started


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    source = Path(cauchylu.__file__).resolve()
    expected = Path(__file__).resolve().parent.parent / "src" / "cauchylu"
    if source.parent != expected:
        print(f"error: imported cauchylu from {source.parent}, not {expected}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[workload](seed)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    calibration = [calibrate()]

    started = time.monotonic()
    for job in jobs:
        try:
            job.output = job.run(job)
        except Exception as exc:  # a job that raises is a failed job; the pass goes on
            job.error = f"{type(exc).__name__}: {exc}"
    ended = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = tracer.report() if tracer else None
    calibration.append(calibrate())

    problems = []
    failed = 0
    for job in jobs:
        if job.error:
            found = [job.error]
        else:
            try:
                found = job.check(job)
            except Exception as exc:  # output too malformed to check
                found = [f"check raised {type(exc).__name__}: {exc}"]
        problems += found
        failed += bool(found)
    digest = None
    if workload == "verify" and jobs[0].output is not None:
        digest = hashlib.sha256(jobs[0].output[1].encode()).hexdigest()
    print(json.dumps({
        "started": started,
        "ended": ended,
        "rss_kb": rss_kb,
        "calibration_s": calibration,
        "attempted": len(jobs),
        "failed": failed,
        "discarded": sum(len(job.discarded) for job in jobs),
        "problems": problems,
        "stdout_sha256": digest,
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
