"""The four benchmark workloads and the checks of their outputs.

A workload draws its inputs from the seed (``select``, plain data such as
corpus seeds), constructs them with the program (``build``), warms the
program up on a fixed small instance (``warm_up``), runs one round of
program calls (``run_round``, which hands the wall time of every call to
``on_op``) and checks a round's outputs against ``oracles`` (``check``).
Every round of a run makes the same calls on the same inputs, so every
round attempts the same instances.

Program calls go through module attributes (``theorems.fuzz_search``,
not a name bound at import), so the traced run sees the wrapped
functions.  The make-up of each round is fixed by ``QUOTA``: inputs are
drawn from the seed in order and kept until every class of the quota is
filled, so a round costs the same whatever the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as O
from hqz import ball, functionals, laplacian, planar, series, theorems
from hqz.errors import HqzError
from hqz.quadrature import QuadratureSpec

Q = QuadratureSpec()
DEGREE = 16
CORPUS_KS = (0.0, 0.1, 0.3, 0.5)

#: circle functionals of smooth integrands converge spectrally, so the
#: program's values sit well inside its abs_tol of 1e-10
TOL = 1e-10

#: zygmund_plus where |Re f| crosses 1: the doubling rule stops with errors
#: up to 8.6e-10 (seeds 0-399 at k = 0.3) while reporting est_error below
#: 1e-10; this allowance covers that fault, still far below what a wrong
#: coefficient or a wrong integrand moves
ZYGMUND_TOL = 5e-9

#: 15 audit points of acceptance criterion 6
AUDIT_POINTS = np.concatenate([r * np.exp(2j * math.pi * np.arange(5) / 5)
                               for r in (0.25, 0.55, 0.8)])
AUDIT_STEP = 1e-4
AUDIT_FLOOR = 0.1

#: hqz green-audit thresholds
GREEN_DISK_TOL = 1e-6
GREEN_CALIBRATION_TOL = 1e-10
GREEN_BALL_TOL = 1e-4

MAX_CANDIDATES = 5000


def coeffs(m) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(m.g.coeffs), np.asarray(m.h.coeffs)


def kept_in_quota(candidates, quota: dict, key: Callable) -> list:
    """Take candidates in order while their class still has room in quota."""
    need = dict(quota)
    picked = []
    for _, item in zip(range(MAX_CANDIDATES), candidates):
        cls = key(item)
        if need.get(cls, 0) > 0:
            need[cls] -= 1
            picked.append(item)
            if not any(need.values()):
                return picked
    raise RuntimeError(f"quota {quota} not filled from {MAX_CANDIDATES} candidates")


def seeded_maps(rng: np.random.Generator, ks):
    """Corpus maps random_qr_map(seed, k, 16) with seed and k drawn from rng."""
    while True:
        seed = int(rng.integers(0, 2 ** 31 - 1))
        k = float(ks[int(rng.integers(0, len(ks)))])
        yield seed, k, planar.random_qr_map(seed, k, DEGREE)


def select_maps(rng: np.random.Generator, ks, quota: dict, cls: Callable) -> list:
    """[seed, k] of the first seeded maps that fill quota, classed by cls(k, g, h)."""
    picked = kept_in_quota(seeded_maps(rng, ks), quota,
                           lambda item: cls(item[1], *coeffs(item[2])))
    return [[seed, k] for seed, k, _ in picked]


def build_maps(selection: list) -> list:
    return [(seed, k, planar.random_qr_map(seed, k, DEGREE)) for seed, k in selection]


@dataclass
class Round:
    """Outputs of one round keyed by label, with the instances that failed;
    ``on_op`` receives the wall time of every call."""
    on_op: Callable | None = None
    outputs: dict = field(default_factory=dict)
    failed: int = 0
    errors: list = field(default_factory=list)

    def call(self, label: str, instances: int, fn: Callable):
        start = time.perf_counter()
        try:
            out = fn()
        except HqzError as exc:
            self.failed += instances
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            out = None
        if self.on_op is not None:
            self.on_op(time.perf_counter() - start)
        self.outputs[label] = out
        return out


class Problems(list):
    """Descriptions of the checks that failed."""

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def k_from_K(K: float) -> float:
    return (K - 1.0) / (K + 1.0)


def check_dilatation(p: Problems, label: str, k_hat: float, g, h, k_declared: float) -> None:
    p.expect(k_hat <= k_declared, f"{label}: k_hat {k_hat!r} > declared {k_declared!r}")
    grid = O.dilatation_grid_max(g, h)
    p.expect(k_hat >= grid - 1e-12, f"{label}: k_hat {k_hat!r} < dense-grid max {grid!r}")


# ---------------------------------------------------------------------------
# t2-corpus
# ---------------------------------------------------------------------------

class T2Corpus:
    """fuzz_search over the corpus at four dilatation levels, as hqz verify-t2."""

    name = "t2-corpus"
    reference = "small_arrays"
    SEEDS_PER_K = 10
    instances = 4 * SEEDS_PER_K + 1

    def select(self, seed: int) -> dict:
        # fuzz_search always walks corpus seeds 0..N-1; the benchmark seed
        # moves the positivity margin, which rescales every map's data
        return {"margin": float(np.random.default_rng([seed, 2]).uniform(0.04, 0.06))}

    def build(self, sel: dict) -> dict:
        const = planar.PlanarHarmonicMap(g=series.ComplexSeries.constant(1.0),
                                         h=series.ComplexSeries.zero())
        return {"margin": sel["margin"], "const": const}

    def warm_up(self, inp: dict) -> None:
        theorems.fuzz_search(1, 0.3, DEGREE, Q, r=1.0, positivity_margin=inp["margin"])

    def run_round(self, inp: dict, on_op: Callable | None = None) -> Round:
        rnd = Round(on_op)
        for k in CORPUS_KS:
            rnd.call(f"fuzz k={k}", self.SEEDS_PER_K,
                     lambda k=k: theorems.fuzz_search(self.SEEDS_PER_K, k, DEGREE, Q, r=1.0,
                                                      positivity_margin=inp["margin"]))
        rnd.call("degenerate", 1, lambda: theorems.verify_T2(inp["const"], 1.0, Q, K=1.0))
        return rnd

    def check(self, inp: dict, rnd: Round) -> Problems:
        p = Problems()
        for k in CORPUS_KS:
            summary = rnd.outputs[f"fuzz k={k}"]
            if summary is None:
                continue
            p.extend(self.check_summary(k, inp["margin"], summary))
        deg = rnd.outputs["degenerate"]
        if deg is not None:
            p.expect(deg.margin == 0.0 and deg.lhs == 1.0,
                     f"degenerate: margin {deg.margin!r}, lhs {deg.lhs!r}; expected 0 and 1")
        return p

    def check_summary(self, k: float, margin: float, summary) -> Problems:
        """Per-map reports against the oracles, then the summary against them."""
        p = Problems()
        margins, ratios, maps = [], [], []
        for s in range(self.SEEDS_PER_K):
            m = planar.random_qr_map(s, k, DEGREE, margin)
            g, h = coeffs(m)
            rep = theorems.verify_T2(m, 1.0, Q, dilatation_grid=theorems.CORPUS_DILATATION_GRID)
            m1, ent = O.circle_means(g, h)
            p.extend(check_t2_report(f"T2 seed={s} k={k}", rep, g, h, m.k_declared, m1, ent))
            K = rep.params["K"]
            rhs = K * K * (math.exp(-1.0 + 1.0 / (K * K)) + ent)
            margins.append(rhs - m1)
            ratios.append(m1 / rhs)
            maps.append(m)
        p.expect(summary.seeds == self.SEEDS_PER_K, f"fuzz k={k}: seeds {summary.seeds}")
        p.expect(close(summary.worst_margin, min(margins), 1e-9),
                 f"fuzz k={k}: worst margin {summary.worst_margin!r} vs oracle {min(margins)!r}")
        p.expect(close(summary.best_ratio, max(ratios), 1e-9),
                 f"fuzz k={k}: best ratio {summary.best_ratio!r} vs oracle {max(ratios)!r}")
        p.expect(summary.witness == planar.map_to_json(maps[int(np.argmax(ratios))]),
                 f"fuzz k={k}: witness is not the map of best ratio")
        return p


def check_t2_report(label: str, rep, g, h, k_declared: float, m1: float,
                    ent: float) -> Problems:
    """One verify_T2 report against the oracle M_1 and mean u log u."""
    p = Problems()
    p.expect(rep.margin >= -rep.quad_error, f"{label}: margin {rep.margin!r} < -quad_error")
    p.expect(close(rep.lhs, m1, TOL), f"{label}: M_1 {rep.lhs!r} vs oracle {m1!r}")
    p.expect(close(rep.params["entropy"], ent, TOL),
             f"{label}: mean u log u {rep.params['entropy']!r} vs oracle {ent!r}")
    K = rep.params["K"]
    rhs = K * K * (math.exp(-1.0 + 1.0 / (K * K)) + ent)
    p.expect(close(rep.rhs, rhs, TOL * K * K), f"{label}: rhs {rep.rhs!r} vs oracle {rhs!r}")
    p.expect(rhs - m1 >= 0.0, f"{label}: oracle margin {rhs - m1!r} < 0")
    check_dilatation(p, label, rep.params["k"], g, h, k_declared)
    return p


# ---------------------------------------------------------------------------
# t1-zygmund
# ---------------------------------------------------------------------------

class T1Zygmund:
    """Square-function constants, then the non-sharp bound, as hqz verify-t1."""

    name = "t1-zygmund"
    reference = "large_arrays"
    #: series by the nodes at which the doubling rule for ||H||_1 settles
    #: (a zero of H near the circle makes |H| nearly a corner); natural
    #: shares over random_series seeds 0-199 are 3.5 / 25.5 / 25.5 / 19.5 /
    #: 17.5 / 4 / 2.5 % at 2^10..2^16, and the 2 % beyond 2^16 (up to 2^20
    #: nodes) are left out: one of them costs as much as the rest of the round
    SERIES_QUOTA = {1 << 10: 2, 1 << 11: 15, 1 << 12: 15, 1 << 13: 12, 1 << 14: 10,
                    1 << 15: 3, 1 << 16: 2}
    #: maps by the nodes at which the doubling rule for zygmund_plus settles
    #: ("plain": |Re f| does not cross 1); natural shares over seeds 0-399
    #: at k = 0.3 are 70 % plain, 3.5 % / 9 % / 13 % / 4 % at 2^16..2^19
    QUOTA = {"plain": 10, 1 << 16: 1, 1 << 17: 1, 1 << 18: 1, 1 << 19: 1}
    instances = 1 + sum(SERIES_QUOTA.values()) + sum(QUOTA.values())

    def select(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        draws = (int(rng.integers(0, 2 ** 31 - 1)) for _ in iter(int, 1))
        series_seeds = kept_in_quota(draws, self.SERIES_QUOTA, lambda s: O.hardy_nodes(
            np.asarray(series.random_series(s, DEGREE, zero_constant=True).coeffs)))

        def cls(k, g, h):
            return O.zygmund_nodes(g, h) if O.crosses_one(g, h) else "plain"

        return {"series": series_seeds, "maps": select_maps(rng, (0.3,), self.QUOTA, cls)}

    def build(self, sel: dict) -> dict:
        corpus = [series.ComplexSeries((0j, 1.0 + 0j))] + [
            series.random_series(s, DEGREE, zero_constant=True) for s in sel["series"]]
        return {"corpus": corpus, "maps": build_maps(sel["maps"])}

    def warm_up(self, inp: dict) -> None:
        functionals.calderon_ratio_estimate(inp["corpus"][:1], Q)
        theorems.verify_T1(planar.random_qr_map(0, 0.3, DEGREE), 1.0, 2.0, Q)

    def run_round(self, inp: dict, on_op: Callable | None = None) -> Round:
        rnd = Round(on_op)
        est = rnd.call("calderon", len(inp["corpus"]),
                       lambda: functionals.calderon_ratio_estimate(inp["corpus"], Q))
        if est is None:
            rnd.failed += len(inp["maps"])
            return rnd
        for seed, _, m in inp["maps"]:
            rnd.call(f"T1 seed={seed}", 1,
                     lambda m=m: theorems.verify_T1(m, 1.0, est[0] * est[1], Q))
        return rnd

    def check(self, inp: dict, rnd: Round) -> Problems:
        p = Problems()
        est = rnd.outputs["calderon"]
        if est is None:
            return p
        p.extend(check_calderon(inp["corpus"], *est))
        for seed, _, m in inp["maps"]:
            rep = rnd.outputs[f"T1 seed={seed}"]
            if rep is not None:
                p.extend(check_t1_report(f"T1 seed={seed}", rep, m, est[0] * est[1]))
        return p


def check_calderon(corpus, c1: float, c2: float) -> Problems:
    p = Problems()
    norms = [(O.hardy_l1(np.asarray(H.coeffs)), O.square_function_l1(np.asarray(H.coeffs)))
             for H in corpus]
    o1 = max(nh / ng for nh, ng in norms)
    o2 = max(ng / nh for nh, ng in norms)
    p.expect(close(c1, o1, 1e-9 * o1), f"c1 {c1!r} vs oracle {o1!r}")
    p.expect(close(c2, o2, 1e-9 * o2), f"c2 {c2!r} vs oracle {o2!r}")
    p.expect(c1 >= math.sqrt(2.0) - 1e-9, f"c1 {c1!r} < sqrt 2 (witness z)")
    p.expect(c2 >= 1.0 / math.sqrt(2.0) - 1e-9, f"c2 {c2!r} < 1/sqrt 2 (witness z)")
    return p


def check_t1_report(label: str, rep, m, c1c2: float) -> Problems:
    p = Problems()
    g, h = coeffs(m)
    m1, _ = O.circle_means(g, h)
    zp = O.zygmund_plus(g, h)
    K = rep.params["K"]
    p.expect(rep.margin >= -rep.quad_error, f"{label}: margin {rep.margin!r} < -quad_error")
    p.expect(close(rep.lhs, m1, TOL), f"{label}: M_1 {rep.lhs!r} vs oracle {m1!r}")
    p.expect(close(rep.params["zygmund_plus"], zp, ZYGMUND_TOL),
             f"{label}: zygmund_plus {rep.params['zygmund_plus']!r} vs oracle {zp!r}")
    p.expect(rep.params["c1c2"] == c1c2, f"{label}: c1c2 {rep.params['c1c2']!r} != {c1c2!r}")
    rhs = O.T1_ENVELOPE * c1c2 * K * (1.0 + zp)
    p.expect(rhs >= m1, f"{label}: oracle rhs {rhs!r} < M_1 {m1!r}")
    check_dilatation(p, label, k_from_K(K), g, h, m.k_declared)
    return p


# ---------------------------------------------------------------------------
# fd-audit
# ---------------------------------------------------------------------------

class FdAudit:
    """Finite-difference audit and Laplacian ratio, as hqz laplacian-audit."""

    name = "fd-audit"
    reference = "small_arrays"
    #: maps by (k, how many of the 15 points the 80-bit stencil cannot
    #: certify); natural shares over the 800-map corpus are 3.5 % of points
    #: and 23 % of maps, and this quota holds 30 of 960 points in 16 of 64
    #: maps.  k is part of the class because maps with k = 0 have h = 0,
    #: which halves the stencil's work
    QUOTA = {**{(k, 0): 12 for k in CORPUS_KS}, **{(k, 1): 2 for k in CORPUS_KS},
             (0.0, 2): 2, (0.1, 2): 2, (0.3, 3): 2, (0.5, 4): 2}
    instances = sum(QUOTA.values())

    def select(self, seed: int) -> dict:
        def cls(k, g, h):
            kept = O.audit_kept(g, h, AUDIT_POINTS, AUDIT_FLOOR)
            return k, O.stencil_uncertified(g, h, AUDIT_POINTS[kept], AUDIT_STEP)

        rng = np.random.default_rng([seed, 3])
        return {"maps": select_maps(rng, CORPUS_KS, self.QUOTA, cls)}

    def build(self, sel: dict) -> dict:
        return {"maps": build_maps(sel["maps"])}

    def warm_up(self, inp: dict) -> None:
        # one point of this map needs the mpmath stencil, which imports mpmath
        m = planar.random_qr_map(7, 0.3, DEGREE)
        laplacian.audit_laplacians(m, AUDIT_POINTS, h=AUDIT_STEP, floor=AUDIT_FLOOR)
        laplacian.laplacian_ratio_sup(m)

    def run_round(self, inp: dict, on_op: Callable | None = None) -> Round:
        rnd = Round(on_op)
        for seed, k, m in inp["maps"]:
            rnd.call(f"audit seed={seed} k={k}", 1, lambda m=m: (
                laplacian.audit_laplacians(m, AUDIT_POINTS, h=AUDIT_STEP, floor=AUDIT_FLOOR),
                laplacian.laplacian_ratio_sup(m)))
        return rnd

    def check(self, inp: dict, rnd: Round) -> Problems:
        p = Problems()
        for seed, k, m in inp["maps"]:
            label = f"audit seed={seed} k={k}"
            if rnd.outputs[label] is not None:
                p.extend(check_audit(label, m, *rnd.outputs[label]))
        return p


def check_audit(label: str, m, audit, ratio: float) -> Problems:
    p = Problems()
    g, h = coeffs(m)
    kept = O.audit_kept(g, h, AUDIT_POINTS, AUDIT_FLOOR)
    p.expect(audit.skipped == int((~kept).sum()),
             f"{label}: skipped {audit.skipped} vs oracle {int((~kept).sum())}")
    p.expect(len(audit.rows) == int(kept.sum()), f"{label}: {len(audit.rows)} rows")
    if len(audit.rows) == int(kept.sum()):
        z = np.asarray([row.z for row in audit.rows])
        p.expect(np.allclose(z, AUDIT_POINTS[kept], rtol=0.0, atol=1e-15),
                 f"{label}: points moved")
        lap_abs, lap_ulogu = O.laplacians(g, h, AUDIT_POINTS[kept])
        for row, la, lu in zip(audit.rows, lap_abs, lap_ulogu):
            where = f"{label} z={row.z:.3f}"
            for name, got, want, rel in (("lap|f|", row.closed_abs_f, la, 1e-9),
                                         ("lap(u log u)", row.closed_ulogu, lu, 1e-9),
                                         ("stencil lap|f|", row.fd_abs_f, la, 1e-5),
                                         ("stencil lap(u log u)", row.fd_ulogu, lu, 1e-5)):
                p.expect(close(got, want, rel * want), f"{where}: {name} {got!r} vs {want!r}")
    p.expect(audit.max_rel_abs_f <= 1e-5 and audit.max_rel_ulogu <= 1e-5,
             f"{label}: max relative deviation {audit.max_rel_abs_f!r}, "
             f"{audit.max_rel_ulogu!r} > 1e-5")
    want = O.laplacian_ratio_max(g, h, O.polar_grid(32, 256))
    p.expect(close(ratio, want, 1e-9 * want), f"{label}: ratio sup {ratio!r} vs oracle {want!r}")
    K = (1.0 + m.k_declared) / (1.0 - m.k_declared)
    p.expect(ratio <= K * K, f"{label}: ratio sup {ratio!r} > K_declared^2 {K * K!r}")
    return p


# ---------------------------------------------------------------------------
# green-ball
# ---------------------------------------------------------------------------

class GreenBall:
    """Disk and ball Green identities and the ball inequality, as hqz
    green-audit, verify-t3 and reproduce-ratio-limit."""

    name = "green-ball"
    reference = "small_arrays"
    R = 0.9
    #: maps by the level at which the area rule settles (see
    #: oracles.green_doubling_level); natural shares over seeds 0-39 at
    #: k = 0.3 are 45 % and 55 %
    QUOTA = {1: 3, 2: 3}
    M_FAMILY = (2.0, 5.0, 10.0)
    A_FAMILY_N = tuple(range(2, 9))
    A_FAMILY_A = 0.01
    RATIO_A = (0.2, 0.1, 0.05, 0.01)
    BALL = (4.0, 2.0)
    instances = (1 + sum(QUOTA.values()) + 2 + len(M_FAMILY) + len(A_FAMILY_N)
                 + len(RATIO_A))

    def select(self, seed: int) -> dict:
        return {"maps": select_maps(np.random.default_rng([seed, 4]), (0.3,), self.QUOTA,
                                    lambda k, g, h: O.green_doubling_level(g, h, self.R))}

    def build(self, sel: dict) -> dict:
        two_plus_z = planar.PlanarHarmonicMap(g=series.ComplexSeries((2.0, 1.0)),
                                              h=series.ComplexSeries.zero())
        return {"disk": [("2+z", two_plus_z)]
                + [(f"seed={s}", m) for s, _, m in build_maps(sel["maps"])]}

    def warm_up(self, inp: dict) -> None:
        laplacian.disk_green_identity(inp["disk"][0][1], self.R, Q)
        ball.ratio_limit_scan(3, self.RATIO_A[:1], Q)

    def run_round(self, inp: dict, on_op: Callable | None = None) -> Round:
        rnd = Round(on_op)
        for label, m in inp["disk"]:
            rnd.call(f"disk {label}", 1, lambda m=m: laplacian.disk_green_identity(m, self.R, Q))
        rnd.call("ball calibration", 1, lambda: ball.ball_green_calibration(Q))
        c, a = self.BALL
        rnd.call("ball n=3", 1,
                 lambda: ball.ball_green_identity_n3(ball.AffineBallMap(3, c, a), Q))
        for x in self.M_FAMILY:
            rnd.call(f"T3 m={x}", 1,
                     lambda x=x: theorems.verify_T3_affine(ball.AffineBallMap(3, x * x, x), Q))
        for n in self.A_FAMILY_N:
            rnd.call(f"T3 n={n}", 1, lambda n=n: theorems.verify_T3_affine(
                ball.AffineBallMap(n, 1.0, self.A_FAMILY_A), Q))
        rnd.call("ratio scan", len(self.RATIO_A),
                 lambda: ball.ratio_limit_scan(3, self.RATIO_A, Q))
        return rnd

    def check(self, inp: dict, rnd: Round) -> Problems:
        p = Problems()
        out = rnd.outputs
        for label, _ in inp["disk"]:
            res = out[f"disk {label}"]
            if res is not None:
                p.expect(abs(res) < GREEN_DISK_TOL, f"disk {label}: residual {res!r}")
        if out["ball calibration"] is not None:
            p.expect(abs(out["ball calibration"]) < GREEN_CALIBRATION_TOL,
                     f"ball calibration: residual {out['ball calibration']!r}")
        if out["ball n=3"] is not None:
            p.expect(abs(out["ball n=3"]) < GREEN_BALL_TOL,
                     f"ball n=3: residual {out['ball n=3']!r}")
        for x in self.M_FAMILY:
            rep = out[f"T3 m={x}"]
            if rep is not None:
                p.extend(check_t3_report(f"T3 m={x}", rep))
                p.expect(close(rep.lhs, 1.0 / 3.0, 1e-8), f"T3 m={x}: X {rep.lhs!r} != 1/3")
        for n in self.A_FAMILY_N:
            rep = out[f"T3 n={n}"]
            if rep is not None:
                p.extend(check_t3_report(f"T3 n={n}", rep))
                ratio = rep.lhs / rep.params["Y"] / (n - 1)
                p.expect(abs(ratio - 1.0) < 0.05, f"T3 n={n}: X/((n-1)Y) = {ratio!r}")
        rows = out["ratio scan"]
        if rows is not None:
            p.extend(check_ratio_rows(rows))
        return p


def check_t3_report(label: str, rep) -> Problems:
    p = Problems()
    p.expect(rep.margin >= -rep.quad_error, f"{label}: margin {rep.margin!r} < -quad_error")
    n, c, a = int(rep.params["n"]), rep.params["c"], rep.params["a"]
    if n == 3:
        x, y = O.affine3_X(c, a), O.affine3_Y(c, a)
        p.expect(close(rep.lhs, x, TOL), f"{label}: X {rep.lhs!r} vs closed form {x!r}")
        p.expect(close(rep.params["Y"], y, TOL),
                 f"{label}: Y {rep.params['Y']!r} vs closed form {y!r}")
    return p


def check_ratio_rows(rows) -> Problems:
    p = Problems()
    for row in rows:
        x, y = O.affine3_X(1.0, row.a), O.affine3_Y(1.0, row.a)
        p.expect(close(row.X, x, TOL), f"ratio a={row.a}: X {row.X!r} vs closed form {x!r}")
        p.expect(close(row.Y, y, TOL), f"ratio a={row.a}: Y {row.Y!r} vs closed form {y!r}")
    devs = [row.deviation for row in rows]
    p.expect(all(b < a for a, b in zip(devs[:-1], devs[1:])),
             f"ratio deviations {devs} not decreasing")
    p.expect(devs[-1] < 0.05, f"ratio deviation {devs[-1]!r} >= 0.05 at a = {rows[-1].a}")
    return p


WORKLOADS = {w.name: w for w in (T2Corpus(), T1Zygmund(), FdAudit(), GreenBall())}
