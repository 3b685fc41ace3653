"""Run one qdosc benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload verify_all --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

Order: set-up (imports, inputs, one untimed warm-up operation), then timed
passes over the workload's operations for ``--seconds`` (at least three
passes; no pass is started that is expected to end later). The reference
kernel of ``speed.py`` runs before every timed operation and after the
last, and each time is scaled by it to seconds at the machine's nominal
speed; the raw times are kept in the record. ``--workload
all`` runs each workload in its own process and prints every metric by
name with its unit. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a summary with quartiles and provenance. A full
record (and, when traced, the spans) is written to ``benchmarks/results/``.

qdosc is imported from ``src/`` next to this directory and nowhere else;
without it the script exits with status 2 and prints no result.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pinned before numpy is imported: with two BLAS threads on a 2-vCPU VM the D=256
# commutator ranged from 7.8 to 55 ms between runs.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

SETUP_SAMPLES = 5  # this process plus four fresh ones; the median is reported
SETUP_REFERENCES = 3  # reference-kernel runs after each set-up; their median scales it
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_qdosc():
    """Import qdosc from this checkout's src/ only."""
    sys.path.insert(0, SRC)
    import qdosc

    found = os.path.dirname(os.path.abspath(qdosc.__file__))
    if found != os.path.join(SRC, "qdosc"):
        raise ImportError(f"qdosc imported from {found}, not from {SRC}")


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: {f: v.get(f) for f in keep} for k, v in deps.items()},
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


class Runner:
    """Runs operations, times them and counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.sink = open(os.devnull, "w")
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def close(self):
        self.sink.close()

    def run(self, op, counted=True):
        """Run one operation; return its wall time. The check is untimed."""
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
                result = op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                if not op.check(result):
                    error = "output check failed"
            except Exception:
                error = traceback.format_exc(limit=3)
        if counted:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append({"op": op.name, "error": error})
        return elapsed

    def one_pass(self, ops):
        """Run every operation once; return the operation times."""
        return [self.run(op) for op in ops]


def quartiles(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"min": min(samples), "q1": q1, "median": q2, "q3": q3, "n": len(samples)}


def setup_reference():
    """Median reference-kernel time right after a set-up."""
    return statistics.median(speed.reference_s() for _ in range(SETUP_REFERENCES))


def setup_samples(args):
    """(set-up time, reference time) of fresh processes running the same
    set-up path."""
    out = []
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]  # fmt: skip
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((sample["setup_s"], sample["ref_s"]))
    return out


def more_passes(passes, t_begin, seconds):
    """At least MIN_PASSES, then only passes expected to end within seconds."""
    if len(passes) < MIN_PASSES:
        return True
    return time.perf_counter() - t_begin + statistics.median(passes) <= seconds


def measure(args, ops, runner, exponent):
    """Untraced passes for args.seconds, with the reference kernel run
    before every operation and after the last. Each operation's time is
    scaled by the mean of the two reference times beside it.

    Returns per pass the raw and the scaled (nominal) time, the operation
    times and the reference times.
    """
    raw, nominal, op_times, refs = [], [], [], [speed.reference_s()]
    elapsed = []
    t_begin = time.perf_counter()
    while more_passes(elapsed, t_begin, args.seconds):
        t_pass = time.perf_counter()
        times, scaled = [], 0.0
        for op in ops:
            times.append(runner.run(op))
            refs.append(speed.reference_s())
            scaled += times[-1] * speed.scale((refs[-2] + refs[-1]) / 2, exponent)
        elapsed.append(time.perf_counter() - t_pass)
        op_times.append(times)
        raw.append(sum(times))
        nominal.append(scaled)
    return raw, nominal, op_times, refs


def measure_traced(args, ops, runner, tracer):
    """Alternate untraced and traced passes; per traced pass, the change in
    calls, self time and counts."""
    plain, traced, deltas = [], [], []
    pairs = []
    t_begin = time.perf_counter()
    while more_passes(pairs, t_begin, args.seconds):
        t_pair = time.perf_counter()
        plain.append(sum(runner.one_pass(ops)))
        before = tracer.snapshot()
        tracer.keep_spans = not traced  # spans of the first traced pass only
        tracer.install()
        try:
            traced.append(sum(runner.one_pass(ops)))
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        pairs.append(time.perf_counter() - t_pair)
        deltas.append(
            {
                key: {k: after[key][k] - before[key][k] for k in after[key]}
                for key in after
            }
        )
    return plain, traced, deltas


def per_layer(tracer_mod, plain, traced, deltas):
    first = deltas[0]
    values = {}
    for name, unit in tracer_mod.per_layer_metrics():
        if name == "tracing_overhead_s":
            value = min(traced) - min(plain)
        elif name.endswith(".calls"):
            value = first["calls"][name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            fn = name[: -len(".self_s")]
            value = statistics.median(d["self_s"][fn] for d in deltas)
        else:
            value = first["counts"][name]
        values[name] = {"value": value, "unit": unit}
    repeat = all(d["calls"] == first["calls"] and d["counts"] == first["counts"] for d in deltas)
    functions = {
        fn: {
            "calls": first["calls"][fn],
            "self_s": statistics.median(d["self_s"][fn] for d in deltas),
        }
        for fn in first["calls"]
    }
    return values, repeat, functions


def run_all(args, names):
    """Run every workload in its own process; print each metric by name
    with its unit, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<48} {m['value']!r} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        import_qdosc()
    except ImportError as exc:
        print(f"cannot import qdosc from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    if args.workload == "all" and not args.setup_only:
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)  # fmt: skip
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    # A relative scratch path keeps the sidecars, and so cli.bytes_written,
    # the same in every checkout.
    os.chdir(ROOT)
    tmp = os.path.relpath(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=RESULTS))
    tracer = tracer_mod.Tracer() if args.trace and not args.setup_only else None
    runner = Runner(tracer)
    try:
        warmup, ops = workloads.WORKLOADS[args.workload](args.seed, tmp)
        runner.run(warmup, counted=False)
        setup_s = time.perf_counter() - T_START
        setup_ref = setup_reference()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "ref_s": setup_ref}))
            return 0

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(),
        }
        if args.trace:
            t_origin = time.perf_counter()
            plain, traced, deltas = measure_traced(args, ops, runner, tracer)
            metrics, repeat, functions = per_layer(tracer_mod, plain, traced, deltas)
            record.update(
                wall_s_untraced=quartiles(plain),
                wall_s_traced=quartiles(traced),
                counts_repeat=repeat,
                spans=tracer.span_count,
                functions=functions,
            )
        else:
            exponent = workloads.SPEED_EXPONENT.get(args.workload, 1.0)
            raw, nominal, op_times, refs = measure(args, ops, runner, exponent)
            setups = [(setup_s, setup_ref)] + setup_samples(args)
            setups_nominal = [t * speed.scale(ref, exponent) for t, ref in setups]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            metrics = {
                "setup_s": {"value": statistics.median(setups_nominal), "unit": "s"},
                "wall_s": {"value": statistics.median(nominal), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            record.update(
                setup_s={
                    "median": statistics.median(setups_nominal),
                    "samples": setups_nominal,
                    "raw_samples": [t for t, _ in setups],
                    "ref_samples": [ref for _, ref in setups],
                },
                wall_s={**quartiles(nominal), "samples": nominal},
                wall_s_raw={**quartiles(raw), "samples": raw},
                ref_s={**quartiles(refs), "nominal": speed.NOMINAL_S, "exponent": exponent},
                op_names=[op.name for op in ops],
                op_times=op_times,
            )
        record.update(
            attempted=runner.attempted,
            failed=runner.failed,
            error_rate=runner.failed / runner.attempted,
            failures=runner.failures,
        )
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        record["result"] = result
        stem = os.path.join(
            RESULTS,
            f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}",
        )
        if args.trace:
            record["spans_file"] = os.path.basename(stem) + "-spans.npz"
            tracer.write_spans(stem + "-spans.npz", t_origin)
        with open(stem + ".json", "w") as fh:
            json.dump(record, fh, indent=1)
        summary = {
            k: record[k]
            for k in ("workload", "seed", "attempted", "failed", "error_rate", "setup_s",
                      "wall_s", "wall_s_raw", "ref_s", "wall_s_untraced", "wall_s_traced", "counts_repeat", "spans",
                      "provenance")
            if k in record
        }  # fmt: skip
        summary["record"] = os.path.relpath(stem + ".json", ROOT)
        print(json.dumps(summary))
        print(json.dumps(result))
        return 0
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
