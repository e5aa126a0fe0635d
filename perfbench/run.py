#!/usr/bin/env python3
"""pzid benchmark: closed-loop workloads checked against a pencil oracle.

Run from the root of a checkout (the directory holding ``src/pzid``):

    python3 perfbench/run.py --workload identify --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer split from a traced run.  ``--workload all`` runs the three
workloads in turn.  The last line of standard output is one JSON object;
the lines before it give the machine header, the output digest and the
sample counts.  The full result, header included, is also written to
``.perfbench_out/``.  See perfbench/README.md.
"""

import os

# pinned before numpy loads: the BLAS thread count changes the speed and noise of small fits
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gauge  # noqa: E402  (imports numpy, so after the pinning above)

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # confirm gain claims here, on a seed not used while tuning
SETUP_REPS = 5
MIN_JOBS = 110  # an untraced run keeps at least ten samples beyond p90
MAX_STRETCH = 1.25  # ... but stops by this multiple of --seconds, to bound a run's length
OUT_DIR = ".perfbench_out"


def load_pzid(root):
    """Import pzid from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pzid", "__init__.py")):
        sys.exit(f"perfbench: no pzid sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    pzid = importlib.import_module("pzid")
    importlib.import_module("pzid.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pzid.__file__))) != src:
        sys.exit(f"perfbench: imported pzid from {pzid.__file__}, not {src}")
    return pzid


def header():
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup(workloads, workload, seed, smoke, work, meter):
    """Build the job pool SETUP_REPS times in the empty directory ``work``,
    each time warming up on the first job of every kind, so the work does
    not depend on which kind the seed put first.  Returns the jobs and the
    median set-up time, scaled and raw."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        samples = [meter.sample() for _ in range(3)]
        t0 = time.perf_counter()
        jobs = workloads.build(workload, seed, smoke)
        first_of_kind = {job.key.split("-", 1)[1]: job for job in reversed(jobs)}
        for job in first_of_kind.values():
            job.check(job.call())
        raw.append(time.perf_counter() - t0)
        samples += [meter.sample() for _ in range(3)]
        scaled.append(raw[-1] * gauge.REF_S / statistics.median(samples))
    return jobs, statistics.median(scaled), statistics.median(raw)


class Measurement:
    """Outcome of one timed, closed-loop measurement: passes over the pool
    until the time is up."""

    def __init__(self):
        self.keys = []
        self.times = []  # raw wall time of each job
        self.samples = []  # gauge samples before each job and after the last
        self.outcomes = {}  # job key -> (results, failed results), worst repeat

    def scaled(self):
        return gauge.scale(self.times, self.samples)


def tally(passes):
    """Results attempted and failed, and the failing job keys.  Each job of
    the pool counts once, however often it repeated: its input is fixed and
    a repeat with other output bytes is flagged as nondeterministic, so the
    counts depend on the seed alone, not on how many passes fit the time."""
    outcomes = {}
    for p in passes:
        for key, (n, bad) in p.outcomes.items():
            outcomes[key] = (n, max(bad, outcomes.get(key, (n, 0))[1]))
    return (sum(n for n, _ in outcomes.values()), sum(b for _, b in outcomes.values()),
            sorted(k for k, (_, b) in outcomes.items() if b))


def measure(jobs, seconds, run, digests, nondeterministic, meter, min_jobs=0):
    """Run jobs back to back until ``seconds`` have passed, every job has run
    at least once and ``min_jobs`` jobs have run, or ``MAX_STRETCH`` times
    ``seconds`` have passed.  Each job's first output fixes its digest; a
    later output that differs marks the job nondeterministic."""
    p = Measurement()
    start = time.perf_counter()
    first = True
    while True:
        for job in jobs:
            elapsed = time.perf_counter() - start
            if not first and elapsed >= seconds and (
                    len(p.times) >= min_jobs or elapsed >= MAX_STRETCH * seconds):
                p.samples.append(meter.sample())
                return p
            p.samples.append(meter.sample())
            t0 = time.perf_counter()
            try:
                out, err = run(job), None
            except Exception as exc:  # a raising call is a failed result, recorded
                out, err = None, exc
                if job.key not in p.outcomes:
                    traceback.print_exc(file=sys.stderr)
            p.times.append(time.perf_counter() - t0)
            p.keys.append(job.key)
            if err is None:
                data, n, bad = job.check(out)
            else:
                data = f"raised {type(err).__name__}: {err}\n".encode()
                n, bad = job.n_results, job.n_results
            h = hashlib.sha256(data).hexdigest()
            if digests.setdefault(job.key, h) != h:
                nondeterministic.add(job.key)
                bad = n
            p.outcomes[job.key] = (n, max(bad, p.outcomes.get(job.key, (n, 0))[1]))
        first = False


def _pool_time(p):
    """Scaled time of one pass over the pool, from each job's mean time;
    unlike a job rate it does not depend on where the last pass stopped."""
    by_job = {}
    for key, t in zip(p.keys, p.scaled()):
        by_job.setdefault(key, []).append(t)
    return sum(statistics.fmean(t) for t in by_job.values())


def timings(times, setup_s):
    """setup_s, jobs_per_s (jobs over the jobs' own time), p50 and p90."""
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
    }


def end_to_end(p, setup_s):
    attempted, failed, _ = tally([p])
    return {
        **timings(p.scaled(), setup_s),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(pzid, workload, seed, seconds, trace, smoke, root):
    import tracing
    import workloads

    work = os.path.join(root, OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    try:
        meter = gauge.Gauge()
        jobs, setup_s, setup_raw = setup(workloads, workload, seed, smoke, work, meter)
        digests, nondet = {}, set()
        tracing.assert_clean(pzid)
        if not trace:
            p = measure(jobs, seconds, lambda job: job.call(), digests, nondet, meter,
                        MIN_JOBS)
            metrics, passes = end_to_end(p, setup_s), [p]
        else:
            plain = measure(jobs, seconds / 2.0, lambda job: job.call(), digests, nondet,
                            meter)
            tracer = tracing.Tracer()
            tracer.install(pzid)
            try:
                ids = {job.key: i for i, job in enumerate(jobs)}
                traced = measure(jobs, seconds / 2.0,
                                 lambda job: tracer.job(ids[job.key], job.call),
                                 digests, nondet, meter)
            finally:
                tracer.restore(pzid)
            metrics, layer_calls = tracing.reduce(tracer.spans)
            idle = [k for k in tracing.EXPECTED[workload] if layer_calls[k] == 0]
            if idle:
                raise tracing.TraceError(f"layers recorded no calls on {workload}: {idle}")
            metrics["trace.overhead_frac"] = (_pool_time(traced) / _pool_time(plain) - 1.0,
                                              "ratio")
            tracer.write(os.path.join(root, OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
            passes = [plain, traced]
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, failed_jobs = tally(passes)
    digest = hashlib.sha256("".join(f"{k} {digests[k]}\n" for k in sorted(digests))
                            .encode()).hexdigest()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "digest": digest,
        "job_samples": sum(len(p.times) for p in passes),
        "pool_size": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "failed_jobs": failed_jobs,
        "nondeterministic": sorted(nondet),
        "raw": {k: v for k, (v, _) in timings(passes[0].times, setup_raw).items()},
        "correct": not nondet,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("identify", "sweep", "proviso", "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed; confirm gain claims on {HELD_OUT_SEED}")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pools, for the benchmark's own test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    pzid = load_pzid(root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    head = header()
    print("header: " + json.dumps(head, sort_keys=True))

    names = ("identify", "sweep", "proviso") if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(pzid, name, args.seed, args.seconds, args.trace, args.smoke, root)
        res["header"] = head
        results.append(res)
        path = os.path.join(root, OUT_DIR,
                            f"result-{name}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
        print(f"{name}: digest {res['digest']}")
        print(f"{name}: {res['job_samples']} jobs over a pool of {res['pool_size']}, "
              f"{res['attempted']} results, {res['failed']} failed "
              f"{res['failed_jobs'] or ''}".rstrip())
        for k, m in res["metrics"].items():
            raw = f"  (raw {res['raw'][k]:.6g})" if k in res["raw"] else ""
            print(f"{name}: {k} = {m['value']:.6g} {m['unit']}{raw}")

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
