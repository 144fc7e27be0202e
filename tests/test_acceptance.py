"""Acceptance suite: every criterion at its pinned tolerance, one printed
pass/fail line per criterion.  The shared module cache means the timing
recorded for criterion 8 reflects the end-to-end cost of the checks it
covers (conservation, closed form, tangents, planar spiral, symmetric tails,
cubic term).
"""

import json
import subprocess
import sys
import time

import pytest

from filpiv import selfcheck as sc

_TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="module")
def cache():
    return sc.RunCache()


def _run(criterion, cache):
    t0 = time.perf_counter()
    result = criterion(cache)
    _TIMINGS[result.name] = time.perf_counter() - t0
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_conservation_suite(cache):
    _run(sc.crit_conservation, cache)


def test_criterion_2_closed_form_equivalence(cache):
    _run(sc.crit_closed_form_equivalence, cache)


def test_criterion_3_zero_axis_tangents(cache):
    _run(sc.crit_zero_a_tangents, cache)


def test_criterion_4_planar_spiral(cache):
    _run(sc.crit_planar_spiral, cache)


def test_criterion_5_symmetric_tail_predictions(cache):
    _run(sc.crit_symmetric_tails, cache)


def test_criterion_6_connection_formulas(cache):
    _run(sc.crit_connection_formulas, cache)


def test_criterion_7_cubic_tail_truncation(cache):
    _run(sc.crit_cubic_truncation, cache)


def test_criterion_8_determinism_and_runtime(tmp_path):
    # repeated CLI runs are byte-identical
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"a": 1.0, "eps": 0.5},
        "initial": {"branch": "odd"},
        "s_span": [-15.0, 15.0],
        "sample_step": 0.25,
    }))
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "filpiv.cli", "integrate",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for name in ("trajectory.csv", "diagnostics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # the selfcheck portion (criteria 1-5, 7) must fit in 10 minutes
    selfcheck_names = {
        "conservation suite", "closed-form tangent equivalence",
        "zero-axis limiting tangents", "planar spiral",
        "symmetric tail predictions", "cubic tail truncation",
    }
    missing = selfcheck_names - set(_TIMINGS)
    assert not missing, f"criteria did not run: {missing}"
    total = sum(_TIMINGS[n] for n in selfcheck_names)
    print(f"[PASS] determinism + selfcheck runtime: byte-identical reruns; "
          f"selfcheck criteria took {total:.1f}s (< 600s)")
    assert total < 600.0
