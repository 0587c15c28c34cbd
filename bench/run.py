"""latmac benchmark: one workload as a single-process closed loop.

    python3 bench/run.py --workload quad-imag --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Jobs enter latmac only through ``latmac.cli.main(argv)`` (stdout captured,
exit code kept) and ``latmac.oracle_count_classes``, one at a time.  With
``--trace 0`` the run times jobs for ``--seconds`` seconds and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed prefix of the stream
twice, untraced and then traced, and reports the per-layer metrics.  Every
output is checked; the last line of stdout is one JSON object.  See
bench/README.md for the metrics and workloads.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import chain, islice  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, poly_text  # noqa: E402

SETUP_REPS = 3
DEFAULT_SEED = 0
# The reference kernel calibrates each job's wall time against the speed the
# machine has at that moment; REF_KERNEL_S is its time on an unloaded core
# of a 2-vCPU Xeon virtual machine, so that reference seconds read close to
# seconds there.
REF_KERNEL_S = 0.0007
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 5
DIGESTS = os.path.join(HERE, "digests.json")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

END_TO_END = (("setup_s", "s"), ("jobs_per_ref_s", "1/ref_s"),
              ("job_p50_ref_ms", "ref_ms"), ("job_tail_ref_ms", "ref_ms"),
              ("peak_rss_mb", "MiB"))
# Printed each run but left out of the JSON result.  Wall-clock times swing
# by a fifth between runs on a shared host, so the gated metrics above use
# reference time instead; the unknown and failure counts are 0 on some
# workloads at the seed commit, and any failure already fails the run.
REPORTED = (("setup_wall_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
            ("job_tail_ms", "ms"),
            ("unknown_verdicts", "count"), ("failed_frac", "ratio"))

# Spans reported as <name>.calls and <name>.self_s by a traced run.
SPANS = (
    "ideal.is_equivalent.imag", "ideal.colon",
    "ideal.cycle_key", "ideal.is_equivalent.real", "order.FieldElement.inverse",
    "quadratic.solve_pell4", "quadratic.fundamental_unit",
    "ideal.is_equivalent.search", "ideal.multiplicator_ring",
    "ideal.stable_sublattices", "exactla.HNFBasis.contains",
    "ideal.class_monoid", "ideal.is_invertible", "ideal.make_ideal",
    "latimer.classify", "latimer.ideal_to_matrix",
    "latimer.are_conjugate", "latimer.xi_eigenvector", "exactla.charpoly",
    "latimer.oracle_count_classes",
    "order.FieldElement.mul", "order.FieldElement.norm",
    "order.Order.reduce_product", "order.Order.xi_times",
    "exactla.hnf", "exactla.adjugate",
)
DERIVED = (
    ("cli.class_monoid_per_job", "count"), ("cli.repeat_job_p50_ms", "ms"),
    ("cli.cold_job_p50_ms", "ms"), ("ideal.is_equivalent.calls_per_lattice", "ratio"),
    ("ideal.is_equivalent.equivalent_frac", "ratio"),
    ("ideal.is_equivalent.search.unknown", "count"),
    ("ideal.stable_sublattices.lattices", "count"),
    ("unknown_verdicts", "count"), ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_units():
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def import_latmac():
    """Import latmac from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "latmac", "cli.py")):
        sys.exit(f"error: no latmac sources under {src}")
    sys.path.insert(0, src)
    os.environ.pop("LATMAC_CACHE_DIR", None)
    import latmac
    import latmac.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(latmac.__file__))) != src:
        sys.exit(f"error: latmac imported from {latmac.__file__}, not {src}")
    return latmac


@dataclass
class Result:
    job: workloads.Job
    code: int
    text: str
    start: float
    seconds: float
    error: str | None = None
    ref_seconds: float = 0.0   # seconds scaled to the reference machine speed


def reference_kernel():
    """Fixed pure-Python work (integers, fractions, tuples) that runs about
    as fast, relative to an unloaded machine, as latmac's own arithmetic."""
    s = 0
    for i in range(1500):
        s += (i * i) % 7
    f = Fraction(1, 3)
    for i in range(60):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    return s, f, tuple((i, i + 1) for i in range(200))


class Calibration:
    """Reference-kernel timings taken between jobs.

    A job's reference time is its wall time times REF_KERNEL_S over the
    median kernel time of the samples taken closest to it, before and after.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self):
        start = self.clock()
        reference_kernel()
        self.times.append(self.clock())
        self.samples.append(self.times[-1] - start)

    def maybe_sample(self):
        if not self.times or self.clock() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_KERNEL_S over the median of the samples nearest to [start, end]."""
        mid = (start + end) / 2
        i = bisect.bisect_left(self.times, mid)
        window = range(max(0, i - CALIBRATION_WINDOW),
                       min(len(self.times), i + CALIBRATION_WINDOW))
        near = sorted(window, key=lambda j: abs(self.times[j] - mid))
        return REF_KERNEL_S / statistics.median(
            self.samples[j] for j in near[:CALIBRATION_WINDOW])


def execute(latmac, job, cache_dir=None):
    """Run one job through the public surface; returns (exit code, stdout)."""
    if job.kind == "oracle":
        chi = latmac.poly_from_string(poly_text(job.coeffs))
        return 0, f"{latmac.oracle_count_classes(chi, *job.info['bounds'])}\n"
    argv = job.argv if cache_dir is None else ["--cache-dir", cache_dir, *job.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = latmac.cli.main(argv)
    return code, out.getvalue()


def run_one(latmac, job, cache_dir):
    start = time.perf_counter()
    try:
        code, text = execute(latmac, job, cache_dir)
        error = None
    except (Exception, SystemExit):  # a job that raises is a failed job
        code, text, error = -1, "", traceback.format_exc(limit=3)
    return Result(job, code, text, start, time.perf_counter() - start, error)


def fresh_dir(prefix):
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


class Run:
    """One workload run: set-up, jobs, checks and metrics."""

    def __init__(self, latmac, workload, seed):
        self.latmac = latmac
        self.workload = workload
        self.seed = seed
        self.dirs = []
        self.jobs = None
        self.setup_s = self.setup_wall_s = None

    def cache_dir(self):
        """A fresh cache directory for workloads that use the CLI cache."""
        if self.workload != "quad-imag":
            return None
        self.dirs.append(fresh_dir("cache-"))
        return self.dirs[-1]

    def setup(self, import_s):
        """Generate inputs and warm up SETUP_REPS times; keep the last stream.

        The set-up time is reported in reference seconds, scaled by the
        median of reference-kernel timings taken around the repetitions.
        """
        calibration = Calibration()
        reps = []
        for _ in range(SETUP_REPS):
            calibration.sample()
            start = time.perf_counter()
            stream = workloads.stream(self.workload, self.seed)
            head = list(islice(stream, 12))  # builds the candidate strata
            warm = run_one(self.latmac, workloads.warmup_job(self.workload), None)
            if warm.error or warm.code not in (0, 2):
                sys.exit(f"error: warm-up job failed\n{warm.error or warm.text}")
            reps.append(time.perf_counter() - start)
        calibration.sample()
        self.jobs = chain(head, stream)
        self.setup_wall_s = import_s + statistics.median(reps)
        self.setup_s = self.setup_wall_s * REF_KERNEL_S / statistics.median(
            calibration.samples)

    def run_jobs(self, jobs, seconds=None, tracer=None):
        """Run jobs one at a time, for seconds if given, else all of them.

        Returns the results, with reference times, and the wall time.
        """
        cache = self.cache_dir()
        calibration = Calibration()
        results = []
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.current_job = i
            calibration.maybe_sample()
            results.append(run_one(self.latmac, job, cache))
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        calibration.maybe_sample()
        for r in results:
            r.ref_seconds = r.seconds * calibration.scale(r.start, r.start + r.seconds)
        return results, wall

    def close(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(SCRATCH)


def problems_of(results, latmac):
    """Map result index -> list of problems, for every failed or wrong job."""
    pins = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            pins = json.load(fh)
    bad = {}
    ideal_counts = {}
    for i, r in enumerate(results):
        if r.error:
            bad[i] = [r.error.strip().splitlines()[-1]]
            continue
        try:
            found = checks.check(r.job, r.code, r.text)
        except (ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable output: {exc!r}"]
        pinned = pins.get(checks.key_id(r.job.key))
        if pinned is not None and pinned != checks.digest(r.code, r.text):
            found.append("stdout differs from the output pinned at the seed commit")
        if r.job.kind == "oracle" and not found:
            coeffs = r.job.coeffs
            if coeffs not in ideal_counts:
                ideal = run_one(latmac, workloads.poly_job("classify", coeffs), None)
                ideal_counts[coeffs] = (int(json.loads(ideal.text)["count"])
                                        if ideal.code in (0, 2) else None)
            if ideal_counts[coeffs] is None:
                found.append("classify failed on the oracle's polynomial")
            elif int(r.text) > ideal_counts[coeffs]:
                found.append(f"oracle count {r.text.strip()} above the "
                             f"{ideal_counts[coeffs]} ideal classes")
        if found:
            bad[i] = found
    return bad


def quantile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def report(workload, seed, header, metrics, units, result):
    print(f"{workload} (seed {seed}): {header}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps(result, sort_keys=True))


def summarize_problems(results, bad):
    for i, found in sorted(bad.items())[:10]:
        print(f"FAILED job {i} [{results[i].job.key[:80]}]: {'; '.join(found)}",
              file=sys.stderr)


def end_to_end(latmac, run, seconds):
    results, wall = run.run_jobs(run.jobs, seconds)
    bad = problems_of(results, latmac)
    summarize_problems(results, bad)
    lat_ms = [r.seconds * 1e3 for r in results]
    ref_ms = [r.ref_seconds * 1e3 for r in results]
    pct = workloads.TAIL_PERCENTILE[run.workload]
    metrics = {
        "setup_s": run.setup_s,
        "jobs_per_ref_s": len(results) / (sum(ref_ms) / 1e3),
        "job_p50_ref_ms": statistics.median(ref_ms),
        "job_tail_ref_ms": quantile(ref_ms, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "setup_wall_s": run.setup_wall_s,
        "jobs_per_s": len(results) / wall,
        "job_p50_ms": statistics.median(lat_ms),
        "job_tail_ms": quantile(lat_ms, pct),
        "unknown_verdicts": sum(checks.unknowns(r.job, r.code, r.text)
                                for i, r in enumerate(results) if i not in bad),
        "failed_frac": len(bad) / len(results),
    }
    units = dict(END_TO_END + REPORTED)
    result = {"correct": not bad, "attempted": len(results), "failed": len(bad),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    beyond = sum(1 for x in ref_ms if x > metrics["job_tail_ref_ms"])
    header = (f"{len(results)} jobs in {wall:.2f} s; the tail is p{pct} "
              f"with {beyond} jobs beyond it")
    report(run.workload, run.seed, header, {**metrics, **extra}, units, result)
    return result


def refine_is_equivalent(args):
    order = getattr(args[0], "order", None) if args else None
    n = getattr(order, "n", None)
    if n == 2:
        return "ideal.is_equivalent." + ("real" if order.disc > 0 else "imag")
    return "ideal.is_equivalent." + ("search" if n and n > 2 else "other")


def observe_status(name, result):
    return {f"{name}.{getattr(result, 'status', 'other')}": 1}


def observe_lattices(name, result):
    return {f"{name}.lattices": len(result)}


def traced(latmac, run):
    """Per-layer metrics: a fixed job prefix, untraced, then traced."""
    from spans import TRACED_MODULES, Tracer

    jobs = list(islice(run.jobs, workloads.TRACE_JOBS[run.workload]))
    plain, wall_plain = run.run_jobs(jobs)
    # Each pass starts with the order cache empty, as a fresh process would.
    clear = getattr(latmac.latimer.order_for, "cache_clear", None)
    if clear is not None:
        clear()
    tracer = Tracer()
    modules = [getattr(latmac, m) for m in TRACED_MODULES]
    tracer.install(modules,
                   refine={"ideal.is_equivalent": refine_is_equivalent},
                   observe={"ideal.is_equivalent": observe_status,
                            "ideal.stable_sublattices": observe_lattices})
    try:
        traced_results, wall_traced = run.run_jobs(jobs, tracer=tracer)
    finally:
        tracer.uninstall()
    bad = problems_of(traced_results, latmac)
    for i, (p, t) in enumerate(zip(plain, traced_results)):
        if (p.code, p.text) != (t.code, t.text):
            bad.setdefault(i, []).append("traced output differs from untraced")
    bad.update({i: found for i, found in problems_of(plain, latmac).items()
                if i not in bad})
    summarize_problems(traced_results, bad)

    summary = tracer.summary()
    values = {}
    for name in SPANS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
    monoid_jobs = [i for i, j in enumerate(jobs) if j.kind in ("classify", "icm")]
    per_job = tracer.calls_by_job("ideal.class_monoid")
    values["cli.class_monoid_per_job"] = (
        sum(per_job[i] for i in monoid_jobs) / len(monoid_jobs) if monoid_jobs else 0)
    repeat_ms = [p.seconds * 1e3 for p in plain if p.job.repeat]
    cold_ms = [p.seconds * 1e3 for p in plain
               if p.job.kind in ("classify", "icm") and not p.job.repeat]
    values["cli.repeat_job_p50_ms"] = statistics.median(repeat_ms) if repeat_ms else 0
    values["cli.cold_job_p50_ms"] = statistics.median(cold_ms) if cold_ms else 0
    equiv_calls = sum(row["calls"] for name, row in summary.items()
                      if name.startswith("ideal.is_equivalent."))
    lattices = tracer.counts["ideal.stable_sublattices.lattices"]
    values["ideal.is_equivalent.calls_per_lattice"] = (
        equiv_calls / lattices if lattices else 0)
    equivalent = sum(v for k, v in tracer.counts.items()
                     if k.startswith("ideal.is_equivalent.") and k.endswith(".equivalent"))
    values["ideal.is_equivalent.equivalent_frac"] = (
        equivalent / equiv_calls if equiv_calls else 0)
    values["ideal.is_equivalent.search.unknown"] = \
        tracer.counts["ideal.is_equivalent.search.unknown"]
    values["ideal.stable_sublattices.lattices"] = lattices
    values["unknown_verdicts"] = sum(checks.unknowns(r.job, r.code, r.text)
                                     for i, r in enumerate(traced_results)
                                     if i not in bad)
    values["failed_frac"] = len(bad) / len(jobs)
    # in reference time, so that the machine's drift between passes cancels
    values["trace.overhead_frac"] = (sum(r.ref_seconds for r in traced_results)
                                     / sum(r.ref_seconds for r in plain) - 1)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{run.workload}-seed{run.seed}.npz"))

    units = per_layer_units()
    result = {"correct": not bad, "attempted": len(jobs), "failed": len(bad),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    outside = wall_traced - tracer.root_time()
    header = (f"{len(jobs)} jobs traced in {wall_traced:.2f} s "
              f"({wall_plain:.2f} s untraced, {len(tracer.start)} spans, "
              f"{outside:.3f} s outside any span)")
    report(run.workload, run.seed, header, values, units, result)
    return result


def run_all(args):
    """Every workload, each in a fresh process, one after another."""
    ok = True
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines() or ["{}"]
        print("\n".join(lines[:-1]), flush=True)
        ok = ok and proc.returncode == 0 and json.loads(lines[-1]).get("correct", False)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    latmac = import_latmac()
    import_s = time.perf_counter() - T0
    run = Run(latmac, args.workload, args.seed)
    try:
        run.setup(import_s)
        if args.trace:
            traced(latmac, run)
        else:
            end_to_end(latmac, run, args.seconds)
    finally:
        run.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
