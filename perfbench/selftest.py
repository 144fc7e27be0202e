"""Self-test of the benchmark itself; it is not part of the package's tests.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

1. BENCHMARK.json lists exactly the metrics run.py and tracing.py report.
2. Baseline cross-check: the traced counters on the reference point
   (a = 1, eps = 0.5, odd branch, |s| <= 40, rel_tol 1e-12) read 52,452
   steps, 314,716 RHS calls and 0 rejected steps.
3. Per workload: two traced passes on one seed give identical
   hardware-independent counts, and another seed draws other inputs.
4. Per workload: tracing overhead, the traced minus the untraced wall_s of
   one pass over the same inputs.

Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

BASELINE = {"odeint.steps": 52_452, "odeint.rhs_evals": 314_716, "odeint.rejected": 0}


def count_metrics(tracing) -> list[str]:
    return [name for name, unit, _ in tracing.PER_LAYER
            if unit in ("count", "bytes") and not name.startswith("bench.")]


def one_pass(workloads, tracing, name, seed, traced):
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tracer.install()
    try:
        wl = workloads.build(name, seed, run.WORK / "selftest" / name, tracer)
        res = run.measure(wl, 0.0, tracer, min_passes=1)
    finally:
        if traced:
            tracer.uninstall()
    return res, sum(res["op_s"]), tracer      # the pass's wall_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", default=None)
    args = p.parse_args(argv)
    run.load_package()
    import tracing
    import workloads
    from filpiv import flow, symmetric

    failures = []

    def expect(ok: bool, what: str):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [tuple(m) for m in tracing.PER_LAYER],
           "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        params = flow.FlowParams(1.0, 0.5)
        flow.integrate_flow(params, symmetric.make_symmetric_ic(params, "odd"),
                            -40.0, 40.0)
    finally:
        tracer.uninstall()
    got = {k: int(tracer.counts[k]) for k in BASELINE}
    expect(got == BASELINE, f"baseline point counters {got} == {BASELINE}")

    counts = count_metrics(tracing)
    for name in args.workload or workloads.WORKLOADS:
        plain, wall_plain, _ = one_pass(workloads, tracing, name, args.seed, False)
        first, wall_traced, t1 = one_pass(workloads, tracing, name, args.seed, True)
        second, _, t2 = one_pass(workloads, tracing, name, args.seed, True)
        m1, m2 = t1.layer_metrics(1), t2.layer_metrics(1)
        diff = {k: (m1[k], m2[k]) for k in counts if m1[k] != m2[k]}
        expect(not diff, f"{name}: counts repeat for seed {args.seed} {diff or ''}")
        expect(all(r["failed"] == 0 for r in (plain, first, second)),
               f"{name}: no failed ops")
        other = workloads.build(name, args.seed + 1, run.WORK / "selftest" / name,
                                tracing.NullTracer())
        this = workloads.build(name, args.seed, run.WORK / "selftest" / name,
                               tracing.NullTracer())
        expect(run.to_json(other.inputs) != run.to_json(this.inputs),
               f"{name}: seed {args.seed + 1} draws other inputs than seed {args.seed}")
        overhead = wall_traced - wall_plain
        print(f"     {name}: one pass {wall_plain:.3f} s untraced, {wall_traced:.3f} s "
              f"traced, overhead {overhead:+.3f} s ({overhead / wall_plain:+.1%})")
        print(f"     {name}: " + ", ".join(f"{k} {int(m1[k])}" for k in counts if m1[k]))
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
