"""filpiv benchmark: one workload per run, a closed loop in one process with
one thread, inputs drawn from the seed.

    python3 perfbench/run.py --workload tails --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): tails, closed_form, dense_output.  A run
repeats passes over the workload's fixed work (every op once): at least
MIN_PASSES, then more while the next one still fits into --seconds.  Every
op's outputs are checked against the pinned tolerances of filpiv.selfcheck.

Timings are host-speed-corrected medians over passes.  The benchmark shares
its host, whose speed for the same single-threaded code swings by up to 2x
within seconds and by tens of percent between 30-second windows.  So a timer
signal times a fixed probe kernel of scalar and small-array work, like the
package's own, every PROBE_INTERVAL_S, also in the middle of long ops.  Each
op's latency, less the probes' own time, is rescaled to the speed at which
the probe takes PROBE_NOMINAL_S, by the mean of the probes taken while it
ran (the two nearest ones for ops shorter than the interval).  Each op's
latency is then the median of its repeats, wall_s is the sum of those over
one pass, and op_p50_s / op_p90_s are quantiles over the distinct ops;
setup_s is rescaled by the probes around each set-up.  The record file keeps
every raw latency and probe.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's
public functions from outside (tracing.py) and reports per-layer metrics of
one pass instead.  Run records and spans go to perfbench/_work/.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import os

# one thread everywhere, set before numpy loads
os.environ.pop("FILPIV_THREADS", None)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

SETUP_REPEATS = 7
MIN_PASSES = 2

PROBE_NOMINAL_S = 7.0e-4        # the probe's best time on a quiet 2-vCPU Xeon
PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, draw the inputs, write the config files and exit "
                        "(the unit of work that setup_s times)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def load_package():
    if not (SRC / "filpiv" / "__init__.py").is_file():
        sys.exit(f"error: no filpiv sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import filpiv
    if Path(filpiv.__file__).resolve().parent != (SRC / "filpiv").resolve():
        sys.exit(f"error: imported filpiv from {filpiv.__file__}, not from {SRC}")


def probe() -> float:
    """Best time of a fixed kernel of scalar and 2x2 array work: the host's
    current speed for code like the package's."""
    import numpy as np
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        y, acc = np.array([1.0, 0.0]), 0.0
        for _ in range(300):
            y = y + 1e-3 * (rot @ y)
            acc += float(y[0])
        best = min(best, time.perf_counter() - t0)
    return best


def rescale(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * 2.0 * PROBE_NOMINAL_S / (probe_before + probe_after)


class HostSpeed:
    """Probes the host's speed on a timer signal while a workload runs."""

    def __init__(self):
        self.times, self.probes = [], []
        self.spent = 0.0                # seconds spent probing

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.probes.append(probe())
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.spent += t1 - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def rescale(self, seconds: float, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        during = self.probes[lo:hi] or [self.probes[lo - 1], self.probes[hi]]
        return seconds * PROBE_NOMINAL_S / statistics.fmean(during)


def time_setup(args) -> list[tuple[float, float]]:
    """(raw, rescaled) wall time of fresh processes that do the set-up and
    exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        dt = time.perf_counter() - t0
        after = probe()
        out.append((dt, rescale(dt, before, after)))
        before = after
    return out


def measure(wl, seconds: float, tracer, min_passes: int = MIN_PASSES) -> dict:
    from filpiv.errors import FilpivError

    pass_times, failures = [], []
    samples = []                # (op index, start, end, latency less probing)
    worst = {}                  # check name -> (value, ratio)
    attempted = failed = 0
    with HostSpeed() as speed:
        start = time.perf_counter()
        while True:
            busy = 0.0
            for i, op in enumerate(wl.ops):
                attempted += 1
                error = out = None
                with tracer.op(op.kind):
                    probing = speed.spent
                    t0 = time.perf_counter()
                    try:
                        out = op.run()
                    except (FilpivError, ValueError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                    t1 = time.perf_counter()
                dt = t1 - t0 - (speed.spent - probing)
                busy += t1 - t0         # raw, like the traced spans
                samples.append((i, t0, t1, dt))
                if error is None:
                    with tracer.paused():
                        try:
                            checks = op.check(out)
                        except (FilpivError, ValueError) as exc:
                            error, checks = f"{type(exc).__name__}: {exc}", []
                    for c in checks:
                        if not c.value <= c.tol:
                            if c.gate:
                                error = f"{c.name} = {c.value:.3e} exceeds {c.tol:.1e}"
                            if not math.isfinite(c.value):
                                continue
                        if c.name not in worst or c.value > worst[c.name][0]:
                            worst[c.name] = (c.value, c.ratio)
                if error is not None:
                    failed += 1
                    failures.append(f"{op.kind}: {error}")
                del out
            pass_times.append(busy)
            elapsed = time.perf_counter() - start
            if len(pass_times) >= min_passes and elapsed + elapsed / len(pass_times) > seconds:
                break
    repeats = [[] for _ in wl.ops]
    for i, t0, t1, dt in samples:
        repeats[i].append(speed.rescale(dt, t0, t1))
    return {
        "passes": len(pass_times),
        "pass_times": pass_times,
        "op_s": [statistics.median(r) for r in repeats],
        "probes": list(zip(speed.times, speed.probes)),
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "worst": worst,
    }


def p50_p90(values) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def provenance(args) -> dict:
    import numpy
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None           # a plain source checkout has no git metadata
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": {"FILPIV_THREADS": os.environ.get("FILPIV_THREADS"),
                    **{v: os.environ.get(v) for v in THREAD_VARS}},
    }


def to_json(obj, **kw) -> str:
    """json.dumps that turns numpy scalars and arrays into Python values."""
    import numpy

    def plain(x):
        if isinstance(x, numpy.generic):
            return x.item()
        if isinstance(x, numpy.ndarray):
            return x.tolist()
        raise TypeError(f"{type(x).__name__} is not JSON serializable")

    return json.dumps(obj, default=plain, allow_nan=False, **kw)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(workloads.WORKLOADS)}")
    work = WORK / args.workload
    if args.setup_only:
        workloads.build(args.workload, args.seed, work, tracing.NullTracer())
        return 0

    setup_samples = time_setup(args)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if tracer.enabled:
        tracer.install()
    wl = workloads.build(args.workload, args.seed, work, tracer)
    res = measure(wl, args.seconds, tracer)
    if tracer.enabled:
        tracer.uninstall()

    ops_per_pass = len(wl.ops)
    fail_frac = res["failed"] / res["attempted"]
    tol_ratio_max = max((r for _, r in res["worst"].values()), default=0.0)
    wall_s = sum(res["op_s"])
    p50, p90 = p50_p90(res["op_s"])
    report = {
        "setup_s": statistics.median(r for _, r in setup_samples),
        "wall_s": wall_s,
        "op_p50_s": p50,
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": fail_frac,
        "tol_ratio_max": tol_ratio_max,
    }
    units = {**END_TO_END, "fail_frac": "ratio", "tol_ratio_max": "ratio"}
    if tracer.enabled:
        layer = tracer.layer_metrics(res["passes"])
        for name in tracing.CHECK_METRICS:
            layer[name] = res["worst"].get(name, (0.0, 0.0))[0]
        layer.update({
            "bench.ops": float(ops_per_pass),
            "bench.fail_frac": fail_frac,
            "bench.tol_ratio_max": tol_ratio_max,
            # the mean raw pass, the same basis as the per-layer times
            "bench.traced_wall_s": statistics.mean(res["pass_times"]),
        })
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "provenance": provenance(args),
        "inputs": wl.inputs,
        "passes": res["passes"],
        "ops_per_pass": ops_per_pass,
        "op_samples": len(res["samples"]),
        "setup_samples_raw_rescaled": setup_samples,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "probes_s": res["probes"],
        "op_samples_raw": res["samples"],
        "pass_times": res["pass_times"],
        "op_s": dict(zip((f"{i}:{op.kind}" for i, op in enumerate(wl.ops)), res["op_s"])),
        "raw_latency_p50_p90_s": p50_p90([dt for *_, dt in res["samples"]]),
        "end_to_end": report,
        "worst_checks": {k: {"value": v, "ratio": r} for k, (v, r) in res["worst"].items()},
        "failures": res["failures"],
        "metrics": metrics,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(to_json(record, indent=1) + "\n")
    if tracer.enabled:
        (WORK / f"{stem}-spans.json").write_text(to_json(tracer.trace_record()) + "\n")

    prov = record["provenance"]
    print(f"# filpiv benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {res['passes']} passes of {ops_per_pass} ops, "
          f"{len(res['samples'])} op samples")
    print(f"# {prov['cpu']}, nproc {prov['nproc']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, commit {prov['commit']}")
    print(f"# host speed: median probe {statistics.median(p for _, p in res['probes']):.3g} s "
          f"against {PROBE_NOMINAL_S:.3g} s nominal; raw pass times "
          + ", ".join(f"{t:.4g}" for t in res["pass_times"][:8]) + " s")
    for name, value in report.items():
        print(f"{name:>16} {value:.6g} {units[name]}")
    for failure in res["failures"][:10]:
        print(f"# failed op: {failure}")
    for name, (value, ratio) in sorted(res["worst"].items()):
        if ratio > 1.0:
            print(f"# over tolerance: {name} = {value:.3e}, {ratio:.2f} x tolerance")
    if tracer.enabled:
        for name, unit, _ in tracing.PER_LAYER:
            print(f"{name:>34} {metrics[name]['value']:.6g} {unit}")
    print(to_json({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
