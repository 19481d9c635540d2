"""Each check of the benchmark accepts the program's output and rejects a
deliberately wrong value.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from hqz import (ComplexSeries, PlanarHarmonicMap, ball, functionals,  # noqa: E402
                 laplacian, planar, series, theorems)
from hqz.errors import NoConvergence  # noqa: E402


def replace_param(rep, **changes):
    return dataclasses.replace(rep, params={**rep.params, **changes})


@pytest.fixture(scope="module")
def t2_case():
    m = planar.random_qr_map(3, 0.3, 16)
    g, h = W.coeffs(m)
    rep = theorems.verify_T2(m, 1.0, W.Q, dilatation_grid=theorems.CORPUS_DILATATION_GRID)
    return rep, g, h, m.k_declared, *O.circle_means(g, h)


def test_t2_report_accepted(t2_case):
    assert W.check_t2_report("t2", *t2_case) == []


@pytest.mark.parametrize("wrong", [
    lambda r: dataclasses.replace(r, margin=-r.quad_error - 1e-6),
    lambda r: dataclasses.replace(r, lhs=r.lhs + 1e-8),
    lambda r: dataclasses.replace(r, rhs=r.rhs * (1 + 1e-8)),
    lambda r: replace_param(r, entropy=r.params["entropy"] + 1e-8),
    lambda r: replace_param(r, k=0.31),
    lambda r: replace_param(r, k=r.params["k"] * 0.999),
])
def test_t2_report_rejected(t2_case, wrong):
    rep, *rest = t2_case
    assert W.check_t2_report("t2", wrong(rep), *rest)


def test_t2_report_rejects_changed_coefficient(t2_case):
    rep, g, h, k, _, _ = t2_case
    g2 = g.copy()
    g2[3] += 1e-6
    assert W.check_t2_report("t2", rep, g2, h, k, *O.circle_means(g2, h))


@pytest.fixture(scope="module")
def fuzz_case():
    wl = W.T2Corpus()
    wl.SEEDS_PER_K = 3
    return wl, theorems.fuzz_search(3, 0.5, 16, W.Q, r=1.0, positivity_margin=0.05)


def test_fuzz_summary_accepted(fuzz_case):
    wl, summary = fuzz_case
    assert wl.check_summary(0.5, 0.05, summary) == []


@pytest.mark.parametrize("wrong", [
    lambda s: dataclasses.replace(s, worst_margin=s.worst_margin + 1e-6),
    lambda s: dataclasses.replace(s, best_ratio=s.best_ratio - 1e-6),
    lambda s: dataclasses.replace(s, seeds=2),
    lambda s: dataclasses.replace(s, witness=planar.map_to_json(planar.random_qr_map(9, 0.5))),
])
def test_fuzz_summary_rejected(fuzz_case, wrong):
    wl, summary = fuzz_case
    assert wl.check_summary(0.5, 0.05, wrong(summary))


def test_degenerate_rejected():
    wl = W.T2Corpus()
    const = wl.build(wl.select(0))["const"]
    rep = theorems.verify_T2(const, 1.0, W.Q, K=1.0)
    rnd = W.Round(outputs={f"fuzz k={k}": None for k in W.CORPUS_KS})
    rnd.outputs["degenerate"] = rep
    assert wl.check({}, rnd) == []
    rnd.outputs["degenerate"] = dataclasses.replace(rep, margin=1e-15)
    assert wl.check({}, rnd)


@pytest.fixture(scope="module")
def calderon_case():
    corpus = [ComplexSeries((0j, 1.0 + 0j))] + [
        series.random_series(s, 16, zero_constant=True) for s in range(3)]
    return corpus, functionals.calderon_ratio_estimate(corpus, W.Q)


def test_calderon_accepted(calderon_case):
    corpus, (c1, c2) = calderon_case
    assert W.check_calderon(corpus, c1, c2) == []


def test_calderon_rejected(calderon_case):
    corpus, (c1, c2) = calderon_case
    assert W.check_calderon(corpus, c1 * (1 + 1e-7), c2)
    assert W.check_calderon(corpus, c1, c2 * (1 - 1e-7))
    # the witness z alone pins c1 = sqrt 2 and c2 = 1/sqrt 2
    z = corpus[:1]
    assert W.check_calderon(z, math.sqrt(2.0), 1.0 / math.sqrt(2.0)) == []
    assert W.check_calderon(z, math.sqrt(2.0) - 1e-6, 1.0 / math.sqrt(2.0))


@pytest.fixture(scope="module")
def t1_case():
    m = planar.random_qr_map(2, 0.3, 16)  # Re f crosses 1 on the circle
    return theorems.verify_T1(m, 1.0, 1.5, W.Q), m


def test_t1_report_accepted(t1_case):
    rep, m = t1_case
    assert O.crosses_one(*W.coeffs(m))
    assert W.check_t1_report("t1", rep, m, 1.5) == []


@pytest.mark.parametrize("wrong", [
    lambda r: dataclasses.replace(r, margin=-r.quad_error - 1e-6),
    lambda r: dataclasses.replace(r, lhs=r.lhs + 1e-8),
    lambda r: replace_param(r, zygmund_plus=r.params["zygmund_plus"] + 1e-7),
    lambda r: replace_param(r, c1c2=1.6),
    lambda r: replace_param(r, K=(1 + 0.31) / (1 - 0.31)),
])
def test_t1_report_rejected(t1_case, wrong):
    rep, m = t1_case
    assert W.check_t1_report("t1", wrong(rep), m, 1.5)


def test_t1_report_rejects_changed_coefficient(t1_case):
    rep, m = t1_case
    g = list(m.g.coeffs)
    g[2] += 1e-6
    other = PlanarHarmonicMap(g=ComplexSeries(tuple(g)), h=m.h, k_declared=m.k_declared)
    assert W.check_t1_report("t1", rep, other, 1.5)


@pytest.fixture(scope="module")
def audit_case():
    m = planar.random_qr_map(29, 0.3, 16)  # several points need the mpmath stencil
    audit = laplacian.audit_laplacians(m, W.AUDIT_POINTS, h=W.AUDIT_STEP, floor=W.AUDIT_FLOOR)
    return m, audit, laplacian.laplacian_ratio_sup(m)


def test_audit_accepted(audit_case):
    m, audit, ratio = audit_case
    g, h = W.coeffs(m)
    assert O.stencil_uncertified(g, h, W.AUDIT_POINTS, W.AUDIT_STEP) > 0
    assert W.check_audit("audit", m, audit, ratio) == []


def _row(audit, **changes):
    rows = list(audit.rows)
    rows[4] = dataclasses.replace(rows[4], **{k: v(rows[4]) for k, v in changes.items()})
    return dataclasses.replace(audit, rows=tuple(rows))


@pytest.mark.parametrize("wrong", [
    lambda a: _row(a, fd_abs_f=lambda r: r.fd_abs_f * (1 + 2e-5)),
    lambda a: _row(a, fd_ulogu=lambda r: r.fd_ulogu * (1 - 2e-5)),
    lambda a: _row(a, closed_abs_f=lambda r: r.closed_abs_f * (1 + 1e-8)),
    lambda a: _row(a, z=lambda r: r.z + 1e-9),
    lambda a: dataclasses.replace(a, skipped=1),
    lambda a: dataclasses.replace(a, rows=a.rows[:-1]),
    lambda a: dataclasses.replace(a, max_rel_ulogu=2e-5),
])
def test_audit_rejected(audit_case, wrong):
    m, audit, ratio = audit_case
    assert W.check_audit("audit", m, wrong(audit), ratio)


def test_ratio_sup_rejected(audit_case):
    m, audit, ratio = audit_case
    assert W.check_audit("audit", m, audit, ratio * (1 + 1e-8))
    tight = dataclasses.replace(m, k_declared=0.01)
    assert any("K_declared" in p for p in W.check_audit("audit", tight, audit, ratio))


@pytest.fixture(scope="module")
def green_case():
    wl = W.GreenBall()
    two_plus_z = PlanarHarmonicMap(g=ComplexSeries((2.0, 1.0)), h=ComplexSeries.zero())
    inp = {"disk": [("2+z", two_plus_z)]}
    rnd = W.Round()
    rnd.call("disk 2+z", 1, lambda: laplacian.disk_green_identity(two_plus_z, wl.R, W.Q))
    for name, out in (("ball calibration", 0.0), ("ball n=3", 0.0)):
        rnd.outputs[name] = out
    for x in wl.M_FAMILY:
        rnd.outputs[f"T3 m={x}"] = theorems.verify_T3_affine(ball.AffineBallMap(3, x * x, x), W.Q)
    for n in wl.A_FAMILY_N:
        rnd.outputs[f"T3 n={n}"] = theorems.verify_T3_affine(
            ball.AffineBallMap(n, 1.0, wl.A_FAMILY_A), W.Q)
    rnd.outputs["ratio scan"] = ball.ratio_limit_scan(3, wl.RATIO_A, W.Q)
    return wl, inp, rnd


def test_green_accepted(green_case):
    wl, inp, rnd = green_case
    assert wl.check(inp, rnd) == []


@pytest.mark.parametrize("label, wrong", [
    ("disk 2+z", lambda r: 2e-6),
    ("ball calibration", lambda r: 1e-9),
    ("ball n=3", lambda r: 2e-4),
    ("T3 m=5.0", lambda r: dataclasses.replace(r, lhs=r.lhs + 1e-7)),
    ("T3 m=2.0", lambda r: dataclasses.replace(r, margin=-r.quad_error - 1e-9)),
    ("T3 n=3", lambda r: replace_param(r, Y=r.params["Y"] * (1 + 1e-4))),
    ("T3 n=5", lambda r: replace_param(r, Y=r.params["Y"] * 1.2)),
    ("ratio scan", lambda rows: [dataclasses.replace(rows[0], X=rows[0].X + 1e-8)] + rows[1:]),
    ("ratio scan", lambda rows: rows[:2] + [dataclasses.replace(rows[2], deviation=1.0)]
     + rows[3:]),
])
def test_green_rejected(green_case, label, wrong):
    wl, inp, rnd = green_case
    bad = W.Round(outputs={**rnd.outputs, label: wrong(rnd.outputs[label])})
    assert wl.check(inp, bad)


def test_failed_calls_are_counted():
    rnd = W.Round()

    def fail():
        raise NoConvergence("forced")

    assert rnd.call("x", 3, fail) is None
    assert rnd.call("y", 1, lambda: 1.0) == 1.0
    assert rnd.failed == 3 and len(rnd.errors) == 1


def test_later_rounds_compared_with_the_first(t2_case):
    rep = t2_case[0]
    assert run.same_outputs({"a": rep}, {"a": rep})
    changed = dataclasses.replace(rep, lhs=rep.lhs * (1 + 1e-9))
    assert not run.same_outputs({"a": rep}, {"a": changed})


def test_oracles_against_closed_forms():
    z = np.array([0, 1], dtype=complex)
    assert O.hardy_l1(z) == pytest.approx(1.0, abs=1e-14)
    assert O.square_function_l1(z) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
    assert O.affine3_X(25.0, 5.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # u = 1.5 + cos t: brute-force midpoint sum of u log+ u
    g = np.array([1.5, 1.0], dtype=complex)
    h = np.zeros(1, dtype=complex)
    t = (np.arange(1 << 22) + 0.5) * (2 * math.pi / (1 << 22))
    u = 1.5 + np.cos(t)
    brute = float(np.mean(np.where(u > 1, u * np.log(np.maximum(u, 1.0)), 0.0)))
    assert O.zygmund_plus(g, h) == pytest.approx(brute, abs=1e-11)


def test_quota_is_filled_exactly():
    picked = W.kept_in_quota(iter(range(100)), {0: 2, 1: 3}, key=lambda i: i % 3)
    assert picked == [0, 1, 3, 4, 7]
    with pytest.raises(RuntimeError):
        W.kept_in_quota(iter(range(10)), {50: 1}, key=lambda i: i)
