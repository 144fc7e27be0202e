"""Outside-in tracing of filpiv's layers for the benchmark's traced run.

`Tracer.install()` replaces public functions of the package's modules with
timing wrappers in every filpiv namespace that holds a reference to them, so
nothing under src/ changes.  Every wrapped call updates counters (calls,
time of outermost calls, self time); coarse layer boundaries also record a
span (name, start, end, id, parent).  Spans stay in memory until the run
writes them out.  `uninstall()` puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MAX_SPANS = 100_000

# 1F1 regimes by the input |z|: power series, Taylor continuation along the
# ray, compound asymptotics (the radii of filpiv.specfun)
HYP1F1_BANDS = ((10.0, "series"), (30.0, "continued"), (float("inf"), "asymptotic"))

# (module, attribute, span name, record a span per call); hot functions keep
# counters only
_WRAPPED = (
    ("odeint", "integrate", "odeint.integrate", True),
    ("flow", "integrate_flow", "flow.integrate_flow", True),
    ("flow", "phi_accumulate", "flow.phi_accumulate", True),
    ("flow", "curvature_torsion", "flow.curvature_torsion", True),
    ("flow", "reconstruct_filament", "flow.reconstruct_filament", True),
    ("flow", "hasimoto_psi", "flow.hasimoto_psi", True),
    ("flow.FlowRun", "state_y", "flow.state_y", False),
    ("flow.FlowRun", "sample", "flow.sample", False),
    ("asympt", "fit_tail", "asympt.fit_tail", True),
    ("asympt", "connect", "asympt.connect", True),
    ("asympt", "connfI_residuals", "asympt.connfI_residuals", True),
    ("painleve", "sp4_integrate", "painleve.sp4_integrate", True),
    ("specfun", "hyp1f1", "specfun.hyp1f1", False),
    ("specfun", "pcf_d", "specfun.pcf_d", False),
    ("specfun", "cgamma", "specfun.cgamma", False),
    ("zero_a", "g_prime_hyp", "zero_a.g_prime_hyp", True),
    ("zero_a", "g_prime_pcf", "zero_a.g_prime_pcf", True),
)

# per-layer metrics of a traced run: (name, unit, better)
PER_LAYER = (
    ("odeint.steps", "count", "lower"),
    ("odeint.rejected", "count", "lower"),
    ("odeint.rhs_evals", "count", "lower"),
    ("odeint.accept_ratio", "ratio", "higher"),
    ("odeint.integrate_s", "s", "lower"),
    ("odeint.us_per_step", "us", "lower"),
    ("odeint.dense_bytes", "bytes", "lower"),
    ("flow.rhs_s", "s", "lower"),
    ("flow.integrate_flow_calls", "count", "lower"),
    ("flow.integrate_flow_s", "s", "lower"),
    ("flow.state_y_calls", "count", "lower"),
    ("flow.state_y_s", "s", "lower"),
    ("flow.sample_calls", "count", "lower"),
    ("flow.sample_s", "s", "lower"),
    ("flow.phi_accumulate_s", "s", "lower"),
    ("flow.curvature_torsion_s", "s", "lower"),
    ("flow.reconstruct_filament_s", "s", "lower"),
    ("flow.eps_drift_max", "1", "lower"),
    ("flow.unit_drift_max", "1", "lower"),
    ("flow.constraint_drift_max", "1", "lower"),
    ("flow.phi_err_max", "rad", "lower"),
    ("flow.psi_modulus_gap_max", "1", "lower"),
    ("asympt.fit_tail_calls", "count", "lower"),
    ("asympt.fit_tail_s", "s", "lower"),
    ("asympt.connect_s", "s", "lower"),
    ("asympt.omega_err_max", "1", "lower"),
    ("asympt.rerho_err_max", "rad", "lower"),
    ("asympt.sides_gap_max", "1", "lower"),
    ("asympt.connect_domega_max", "1", "lower"),
    ("asympt.connect_ddelta_max", "rad", "lower"),
    ("asympt.connfI_resid_max", "1", "lower"),
    ("painleve.sp4_integrate_s", "s", "lower"),
    ("painleve.steps", "count", "lower"),
    ("painleve.rhs_evals", "count", "lower"),
    ("painleve.residual_ratio_max", "ratio", "lower"),
    ("painleve.sigma_gap_max", "1", "lower"),
    ("specfun.hyp1f1_calls.series", "count", "lower"),
    ("specfun.hyp1f1_calls.continued", "count", "lower"),
    ("specfun.hyp1f1_calls.asymptotic", "count", "lower"),
    ("specfun.hyp1f1_s", "s", "lower"),
    ("specfun.pcf_d_calls", "count", "lower"),
    ("specfun.pcf_d_s", "s", "lower"),
    ("specfun.cgamma_calls", "count", "lower"),
    ("zero_a.g_prime_hyp_s", "s", "lower"),
    ("zero_a.g_prime_pcf_s", "s", "lower"),
    ("zero_a.repr_gap_max", "1", "lower"),
    ("zero_a.unit_err_max", "1", "lower"),
    ("cli.integrate_s", "s", "lower"),
    ("cli.filament_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.output_gap_max", "1", "lower"),
    ("bench.ops", "count", "higher"),
    ("bench.fail_frac", "ratio", "lower"),
    ("bench.tol_ratio_max", "ratio", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
)

# per-layer metrics that are measured errors of the workloads' checks
CHECK_METRICS = tuple(
    name for name, _, _ in PER_LAYER
    if name.endswith("_max") and not name.startswith("bench.")
)


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name):
        yield

    @contextmanager
    def op(self, name):
        yield

    @contextmanager
    def paused(self):
        yield

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)        # outermost calls only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.dense_bytes_max = 0
        self.rhs_time = 0.0
        self.spans = []
        self.dropped = 0
        self._stack = []    # frames: [name, id, parent id, start, child time]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._paused = False
        self._op_bytes = 0
        self._restore = []
        self._t0 = time.perf_counter()

    # -- frames -------------------------------------------------------------

    def _push(self, name):
        self._depth[name] += 1
        parent = self._stack[-1][1] if self._stack else None
        frame = [name, self._next_id, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame, record):
        t1 = time.perf_counter()
        self._stack.pop()
        name, sid, parent, t0, child = frame
        dt = t1 - t0
        self._depth[name] -= 1
        self.calls[name] += 1
        if self._depth[name] == 0:
            self.time[name] += dt
        self.self_time[name] += dt - child
        if self._stack:
            self._stack[-1][4] += dt
        if record:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, t0 - self._t0, t1 - self._t0, sid, parent))
            else:
                self.dropped += 1

    def inside(self, name) -> bool:
        return self._depth[name] > 0

    @contextmanager
    def span(self, name):
        frame = self._push(name)
        try:
            yield
        finally:
            self._pop(frame, True)

    @contextmanager
    def op(self, name):
        self._op_bytes = 0
        with self.span(name):
            yield
        self.dense_bytes_max = max(self.dense_bytes_max, self._op_bytes)

    @contextmanager
    def paused(self):
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def count(self, name, value):
        self.counts[name] += value

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, record, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            frame = tracer._push(name)
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, record)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _timed_make_rhs(self, make_rhs):
        tracer = self

        def timed_make_rhs(params):
            rhs = make_rhs(params)

            def timed_rhs(s, y):
                if tracer._paused:
                    return rhs(s, y)
                t0 = time.perf_counter()
                out = rhs(s, y)
                dt = time.perf_counter() - t0
                tracer.rhs_time += dt
                if tracer._stack:
                    tracer._stack[-1][4] += dt
                return out

            return timed_rhs

        return timed_make_rhs

    def _on_trajectory(self, traj):
        steps = traj.n_steps
        self.counts["odeint.steps"] += steps
        self.counts["odeint.rejected"] += traj.n_rejected
        self.counts["odeint.rhs_evals"] += traj.rhs_evals
        self._op_bytes += _stored_bytes(traj)
        if self.inside("painleve.sp4_integrate"):
            self.counts["painleve.steps"] += steps
            self.counts["painleve.rhs_evals"] += traj.rhs_evals

    def _on_hyp1f1(self, args, kwargs):
        if self._depth["specfun.hyp1f1"] != 1:
            return  # the Kummer transform re-enters hyp1f1
        z = abs(complex(kwargs["z"] if "z" in kwargs else args[2]))
        for radius, band in HYP1F1_BANDS:
            if z <= radius:
                self.counts["specfun.hyp1f1_calls." + band] += 1
                return

    def install(self):
        """Wrap the traced functions in every loaded filpiv module."""
        import filpiv.cli  # noqa: F401  (loads every module the wrappers patch)
        modules = [m for n, m in sys.modules.items()
                   if n == "filpiv" or n.startswith("filpiv.")]
        hooks = {
            "odeint.integrate": (None, self._on_trajectory),
            "specfun.hyp1f1": (self._on_hyp1f1, None),
        }
        for owner, attr, name, record in _WRAPPED:
            target = _resolve(owner)
            original = getattr(target, attr)
            before, after = hooks.get(name, (None, None))
            self._replace(modules, target, attr, original,
                          self.wrap(name, original, record, before, after))
        flow = sys.modules["filpiv.flow"]
        self._replace(modules, flow, "make_rhs", flow.make_rhs,
                      self._timed_make_rhs(flow.make_rhs))

    def _replace(self, modules, target, attr, original, replacement):
        holders = [target] if isinstance(target, type) else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, original))
                    setattr(holder, key, replacement)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer work and time of one pass over the fixed work."""
        c, t = self.counts, self.time
        steps, rejected = c["odeint.steps"], c["odeint.rejected"]
        attempts = steps + rejected
        return {
            "odeint.steps": steps / passes,
            "odeint.rejected": rejected / passes,
            "odeint.rhs_evals": c["odeint.rhs_evals"] / passes,
            "odeint.accept_ratio": steps / attempts if attempts else 0.0,
            "odeint.integrate_s": t["odeint.integrate"] / passes,
            "odeint.us_per_step": 1e6 * t["odeint.integrate"] / steps if steps else 0.0,
            "odeint.dense_bytes": float(self.dense_bytes_max),
            "flow.rhs_s": self.rhs_time / passes,
            "flow.integrate_flow_calls": self.calls["flow.integrate_flow"] / passes,
            "flow.integrate_flow_s": t["flow.integrate_flow"] / passes,
            "flow.state_y_calls": self.calls["flow.state_y"] / passes,
            "flow.state_y_s": t["flow.state_y"] / passes,
            "flow.sample_calls": self.calls["flow.sample"] / passes,
            "flow.sample_s": t["flow.sample"] / passes,
            "flow.phi_accumulate_s": t["flow.phi_accumulate"] / passes,
            "flow.curvature_torsion_s": t["flow.curvature_torsion"] / passes,
            "flow.reconstruct_filament_s": t["flow.reconstruct_filament"] / passes,
            "asympt.fit_tail_calls": self.calls["asympt.fit_tail"] / passes,
            "asympt.fit_tail_s": t["asympt.fit_tail"] / passes,
            "asympt.connect_s": t["asympt.connect"] / passes,
            "painleve.sp4_integrate_s": t["painleve.sp4_integrate"] / passes,
            "painleve.steps": c["painleve.steps"] / passes,
            "painleve.rhs_evals": c["painleve.rhs_evals"] / passes,
            "specfun.hyp1f1_calls.series": c["specfun.hyp1f1_calls.series"] / passes,
            "specfun.hyp1f1_calls.continued": c["specfun.hyp1f1_calls.continued"] / passes,
            "specfun.hyp1f1_calls.asymptotic": c["specfun.hyp1f1_calls.asymptotic"] / passes,
            "specfun.hyp1f1_s": t["specfun.hyp1f1"] / passes,
            "specfun.pcf_d_calls": self.calls["specfun.pcf_d"] / passes,
            "specfun.pcf_d_s": t["specfun.pcf_d"] / passes,
            "specfun.cgamma_calls": self.calls["specfun.cgamma"] / passes,
            "zero_a.g_prime_hyp_s": t["zero_a.g_prime_hyp"] / passes,
            "zero_a.g_prime_pcf_s": t["zero_a.g_prime_pcf"] / passes,
            "cli.integrate_s": t["cli.integrate"] / passes,
            "cli.filament_s": t["cli.filament"] / passes,
            "cli.self_s": (self.self_time["cli.integrate"]
                           + self.self_time["cli.filament"]) / passes,
            "cli.bytes_written": c["cli.bytes_written"] / passes,
        }

    def trace_record(self) -> dict:
        return {
            "columns": ["name", "start_s", "end_s", "id", "parent"],
            "spans": self.spans,
            "dropped": self.dropped,
        }


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    target = sys.modules["filpiv." + module]
    return getattr(target, cls) if cls else target


def _stored_bytes(obj) -> int:
    """Bytes of the numpy arrays an integrator result keeps (computed from
    array sizes, not measured)."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], np.ndarray):
            total += sum(v.nbytes for v in value)
    return total
