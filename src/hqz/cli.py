"""Reproducible scenario runner.

    hqz <scenario> [--key=value ...] [--config PATH] [--out PATH] [--format csv|jsonl]

One subcommand per verifiable claim: the three theorems (verify-t1,
verify-t2 with its tightness witnesses, verify-t3 with the ball
families' limits), the strip corollary, and the audits of the proof's
lemmas and constants.  Every scenario runs with zero configuration,
writes one table, prints a single PASS/FAIL line that names each
acceptance criterion that fails, and exits 0 iff PASS.  A plain-text
key=value config file can seed the options and command-line flags
override it; the environment variable HQZ_SEED overrides the seed count
from either.
Unknown scenarios, unknown keys and keys the scenario does not read are
rejected (exit 2); unwritable output paths exit 3.  Floats are formatted
with 17 significant digits so rerunning a configuration reproduces the
output byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .ball import AffineBallMap, ball_green_calibration, ball_green_identity_n3, phi_of_m
from .errors import ConfigError, DomainError, HqzError
from .functionals import calderon_norms, calderon_ratio_estimate
from .laplacian import audit_laplacians, disk_green_identity, laplacian_ratio_sup
from .planar import PlanarHarmonicMap, dilatation_sup, map_to_json, random_qr_map
from .quadrature import QuadratureSpec
from .series import DEGREE_CAP, ComplexSeries, random_series
from .theorems import (fuzz_search, verify_T1, verify_T2, verify_T2_strip,
                       verify_T3_affine)

#: every key: (type, condition or None, wording of the condition), checked
#: in this order; the quadrature keys are QuadratureSpec's fields, which it checks
KEYS = {
    "format": (str, lambda v: v in ("csv", "jsonl"), "csv or jsonl"),
    "seeds": (int, lambda v: v >= 0, "nonnegative"),
    "n": (int, lambda v: v >= 1, "at least 1"),
    "k": (float, lambda v: 0 <= v < 1, "in [0, 1)"),
    "r": (float, lambda v: 0 < v <= 1, "in (0, 1]"),
    "degree": (int, lambda v: 1 <= v < DEGREE_CAP,
               f"in [1, {DEGREE_CAP - 1}], below the degree cap {DEGREE_CAP}"),
    "c1c2": (float, lambda v: 0 < v < math.inf, "positive and finite"),
    "out": (str, None, None),
    "config": (str, None, None),
} | {f.name: (type(f.default), None, None) for f in fields(QuadratureSpec)}


@dataclass
class RunConfig:
    scenario: str
    quadrature: QuadratureSpec = QuadratureSpec()
    seeds: int | None = None     # None means "scenario default"
    n: int | None = None
    k: float | None = None
    r: float = 1.0
    degree: int = 16
    c1c2: float | None = None
    out: str = ""
    format: str = "csv"


def _parse_value(key: str, raw: str, where: str = ""):
    """raw as the type of ``key``; ``where`` prefixes an unknown key."""
    if key not in KEYS:
        raise ConfigError(f"{where}unknown key {key!r}")
    try:
        return KEYS[key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}") from exc


def _read_config_file(path: str) -> dict:
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key == "scenario":
                    out["scenario"] = raw
                    continue
                out[key] = _parse_value(key, raw, f"{path}:{lineno}: ")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def parse_args(argv: list[str]) -> RunConfig:
    if not argv:
        raise ConfigError(
            "usage: hqz <scenario> [--key=value ...] [--out PATH] [--format csv|jsonl]\n"
            "scenarios: " + " ".join(SCENARIOS))
    scenario = argv[0]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from: "
                          + ", ".join(SCENARIOS))
    # collect --key=value and --key value tokens
    raw: dict = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, val = body.split("=", 1)
        else:
            key = body
            i += 1
            if i >= len(argv):
                raise ConfigError(f"flag --{key} needs a value")
            val = argv[i]
        key = key.replace("-", "_")
        raw[key] = _parse_value(key, val)
        i += 1

    merged: dict = {}
    if "config" in raw:
        merged.update(_read_config_file(raw["config"]))
        if merged.pop("scenario", scenario) != scenario:
            raise ConfigError("config file scenario differs from command line")
    given = [*merged, *raw]  # HQZ_SEED is the environment, not a key given
    env_seed = os.environ.get("HQZ_SEED")
    if env_seed is not None:
        merged["seeds"] = _parse_value("seeds", env_seed)
    merged.update(raw)
    merged.pop("config", None)  # read above; a config line inside the file is ignored
    for key, (_, valid, want) in KEYS.items():
        if valid is not None and key in merged and not valid(merged[key]):
            raise ConfigError(f"{key} must be {want}, got {merged[key]!r}")
    try:  # keys not given keep the defaults of QuadratureSpec and RunConfig
        quad = QuadratureSpec(**{f.name: merged.pop(f.name)
                                 for f in fields(QuadratureSpec) if f.name in merged})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    keys = _keys(scenario)
    unread = [key for key in given if key not in keys]
    if unread:
        raise ConfigError(f"{scenario} does not read {', '.join(unread)}; "
                          f"it reads {', '.join(keys)}")
    return RunConfig(scenario=scenario, quadrature=quad, **merged)


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            return repr(v)
        return format(v, ".17g")
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def write_rows(header: list[str], rows: list[dict], path: str, fmt: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(row[k]) for k in header])
            else:
                for row in rows:
                    fh.write(json.dumps({k: _jsonable(v) for k, v in row.items()},
                                        sort_keys=True) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario implementations: each returns (rows, criteria, detail), criteria
# naming each condition that must hold, written so that a NaN fails it; the
# details take np.min and np.max, which keep a NaN where min and max drop it
# ---------------------------------------------------------------------------

#: columns of the tables that --seeds=0 leaves without rows
T1_COLUMNS = ("seed", "k", "lhs", "rhs", "margin", "quad_error", "empirical_constant")
AUDIT_COLUMNS = ("seed", "k", "points", "skipped", "max_rel_abs_f", "max_rel_ulogu",
                 "max_ratio", "K2_bound")


def _default(value, fallback):
    return fallback if value is None else value


def run_reproduce_strip(cfg: RunConfig):
    n_max = _default(cfg.n, 64)
    q = cfg.quadrature
    rows = []
    values = []
    for n in range(1, n_max + 1):
        rep = verify_T2_strip(n, q)
        values.append(rep.lhs)
        rows.append({"n": n, "h1_norm": rep.lhs, "gap": rep.margin,
                     "gap_envelope": rep.params["gap_envelope"]})
    criteria = {"every norm < 1": all(v < 1.0 for v in values),
                "norms increase": all(b > a for a, b in zip(values, values[1:])),
                "gap(32) < 2/33": n_max < 32 or (1.0 - values[31]) < 2.0 / 33.0,
                "|norm(1) - 2/pi| < 1e-9": abs(values[0] - 2.0 / math.pi) < 1e-9}
    detail = (f"norms in [{values[0]:.6f}, {values[-1]:.6f}], all < 1, "
              f"gap(32) = {1.0 - values[31]:.6f}" if n_max >= 32 else
              f"norms in [{values[0]:.6f}, {values[-1]:.6f}]")
    return rows, criteria, detail


def _h_corpus(seeds: int, degree: int) -> list[tuple[str, ComplexSeries]]:
    """Estimator corpus: the monomial z (the known ratio witness) plus the
    deterministic random series."""
    corpus = [("z", ComplexSeries((0j, 1.0 + 0j)))]
    corpus.extend((f"seed{seed}", random_series(seed, degree, zero_constant=True))
                  for seed in range(seeds))
    return corpus


def run_calderon_estimate(cfg: RunConfig):
    seeds = _default(cfg.seeds, 100)
    q = cfg.quadrature
    corpus = _h_corpus(seeds, cfg.degree)
    rows = [{"member": label, "norm_H": nh, "norm_GH": ng,
             "ratio_H_over_GH": nh / ng, "ratio_GH_over_H": ng / nh}
            for (label, _), (nh, ng) in zip(corpus, calderon_norms([H for _, H in corpus], q))]
    # np.max keeps a NaN ratio, so the finite criteria below see it
    c1_lb, c2_lb = (float(np.max([r[key] for r in rows]))
                    for key in ("ratio_H_over_GH", "ratio_GH_over_H"))
    rows.append({"member": "max", "norm_H": math.nan, "norm_GH": math.nan,
                 "ratio_H_over_GH": c1_lb, "ratio_GH_over_H": c2_lb})
    c1_floor, c2_floor = math.sqrt(2.0) - 1e-9, 1.0 / math.sqrt(2.0) - 1e-9
    criteria = {"c1 >= sqrt(2) - 1e-9, finite": math.isfinite(c1_lb) and c1_lb >= c1_floor,
                "c2 >= 1/sqrt(2) - 1e-9, finite": math.isfinite(c2_lb) and c2_lb >= c2_floor}
    detail = f"c1 lower bound {c1_lb:.6f}, c2 lower bound {c2_lb:.6f} over {seeds} series"
    return rows, criteria, detail


def run_verify_t1(cfg: RunConfig):
    seeds = _default(cfg.seeds, 100)
    k = _default(cfg.k, 0.3)
    q = cfg.quadrature
    corpus = [H for _, H in _h_corpus(seeds, cfg.degree)]
    c1_lb, c2_lb = calderon_ratio_estimate(corpus, q)
    c1c2 = _default(cfg.c1c2, c1_lb * c2_lb)
    rows = []
    for seed in range(min(seeds, 20)):
        m = random_qr_map(seed, k, cfg.degree)
        rep = verify_T1(m, cfg.r, c1c2, q)
        rows.append(dict(zip(T1_COLUMNS, (seed, k, rep.lhs, rep.rhs, rep.margin,
                                          rep.quad_error,
                                          rep.params["empirical_constant"]))))
    criteria = {"c1c2 finite and positive": math.isfinite(c1c2) and c1c2 > 0,
                "margin >= -quad_error": all(r["margin"] >= -r["quad_error"] for r in rows)}
    detail = (f"c1c2 = {c1c2:.6f}; min margin = {np.min([r['margin'] for r in rows]):.6f}"
              if rows else "empty corpus, vacuous PASS")
    return rows, criteria, detail


def run_verify_t2(cfg: RunConfig):
    seeds = _default(cfg.seeds, 200)
    q = cfg.quadrature
    rows = []
    for k in (0.0, 0.1, 0.3, 0.5) if cfg.k is None else (cfg.k,):
        summary = fuzz_search(seeds, k, cfg.degree, q, r=cfg.r)
        rows.append({"k": k, "seeds": summary.seeds,
                     "worst_margin": summary.worst_margin,
                     "best_ratio": summary.best_ratio, "witness": summary.witness})
    worst = float(np.min([r["worst_margin"] for r in rows]))
    constant = PlanarHarmonicMap(g=ComplexSeries.constant(1.0),
                                 h=ComplexSeries.zero())
    degenerate = verify_T2(constant, 1.0, q, K=1.0)
    rows.append({"k": 0.0, "seeds": 0, "worst_margin": degenerate.margin,
                 "best_ratio": degenerate.lhs / degenerate.rhs,
                 "witness": map_to_json(constant)})
    criteria = {"worst margin >= -1e-9": all(r["worst_margin"] >= -1e-9
                                             for r in rows if r["seeds"] > 0),
                "degenerate margin == 0": degenerate.margin == 0.0}
    detail = f"worst margin over corpus = {worst!r}; degenerate margin = {degenerate.margin!r}"
    return rows, criteria, detail


def run_verify_t3(cfg: RunConfig):
    q = cfg.quadrature
    rows = []
    for m in (2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        rep = verify_T3_affine(AffineBallMap(n=3, c=m * m, a=m), q)
        rows.append({"family": "m", "n": 3, "param": m, "lhs_X": rep.lhs,
                     "Y": rep.params["Y"], "rhs": rep.rhs, "margin": rep.margin,
                     "ratio": rep.lhs / rep.rhs, "phi": phi_of_m(m)})
    m_rows = rows[:]
    deviations = []  # one list per n, over the a scan
    for n in range(2, 9):
        deviations.append([])
        for a in (0.2, 0.1, 0.05, 0.01):
            rep = verify_T3_affine(AffineBallMap(n=n, c=1.0, a=a), q)
            ratio = rep.lhs / rep.params["Y"]
            rows.append({"family": "a", "n": n, "param": a, "lhs_X": rep.lhs,
                         "Y": rep.params["Y"], "rhs": rep.rhs, "margin": rep.margin,
                         "ratio": ratio / (n - 1), "phi": math.nan})
            deviations[-1].append(abs(ratio - (n - 1)) / (n - 1))
    gaps = [abs(r["phi"] - 1.0 / 3.0) for r in m_rows if r["param"] >= 10]
    criteria = {"margin >= -1e-9": all(r["margin"] >= -1e-9 for r in rows),
                "a-family X/Y within 5% of n - 1": all(d < 0.05 for devs in deviations
                                                       for d in devs),
                "deviations decrease": all(b < a for devs in deviations
                                           for a, b in zip(devs, devs[1:])),
                "|X - 1/3| <= 1e-8 at m = 2, 5, 10":
                all(abs(r["lhs_X"] - 1.0 / 3.0) <= 1e-8 for r in m_rows if r["param"] <= 10),
                "|phi - 2Y| <= 1e-7": all(abs(r["phi"] - r["rhs"]) <= 1e-7 for r in m_rows),
                "phi gap decreases over m = 10..100": all(b < a for a, b in zip(gaps, gaps[1:])),
                "|phi(100) - 1/3| < 1e-3": gaps[-1] < 1e-3}
    detail = (f"min margin = {np.min([r['margin'] for r in rows]):.3e}, "
              f"max |X - 1/3| = {np.max([abs(r['lhs_X'] - 1.0 / 3.0) for r in m_rows]):.2e}, "
              f"|phi(100) - 1/3| = {gaps[-1]:.2e}, "
              f"max X/Y deviation from n - 1 = {np.max(deviations):.2%}")
    return rows, criteria, detail


def run_laplacian_audit(cfg: RunConfig):
    seeds = _default(cfg.seeds, 40)
    k = _default(cfg.k, 0.3)
    rows = []
    radii = (0.25, 0.55, 0.8)
    angles = [2.0 * math.pi * j / 5 for j in range(5)]
    points = [r * complex(math.cos(t), math.sin(t)) for r in radii for t in angles]
    pts = np.asarray(points, dtype=complex)
    for seed in range(seeds):
        m = random_qr_map(seed, k, cfg.degree)
        audit = audit_laplacians(m, pts)
        rep = dilatation_sup(m)
        ratio = laplacian_ratio_sup(m)
        bound = rep.K_hat ** 2 * (1.0 + 1e-9)
        rows.append(dict(zip(AUDIT_COLUMNS, (seed, k, len(audit.rows), audit.skipped,
                                             audit.max_rel_abs_f, audit.max_rel_ulogu,
                                             ratio, bound))))
    criteria = {"FD deviations <= 1e-5": all(r["max_rel_abs_f"] <= 1e-5
                                             and r["max_rel_ulogu"] <= 1e-5 for r in rows),
                "ratio <= K^2 (1 + 1e-9)": all(r["max_ratio"] <= r["K2_bound"] for r in rows)}
    detail = (f"worst FD relative deviation "
              f"{np.max([[r['max_rel_abs_f'], r['max_rel_ulogu']] for r in rows]):.2e} "
              f"over {seeds} maps" if rows else "empty corpus, vacuous PASS")
    return rows, criteria, detail


def run_green_audit(cfg: RunConfig):
    q = cfg.quadrature
    rows = []
    m1 = PlanarHarmonicMap(g=ComplexSeries((2.0, 1.0)), h=ComplexSeries.zero())
    res1 = disk_green_identity(m1, 0.9, q)
    rows.append({"case": "disk_2_plus_z", "residual": res1, "threshold": 1e-6})
    m2 = random_qr_map(7, 0.3, cfg.degree)
    res2 = disk_green_identity(m2, 0.9, q)
    rows.append({"case": "disk_fuzz_k03", "residual": res2, "threshold": 1e-6})
    res3 = ball_green_calibration(q)
    rows.append({"case": "ball_calibration_x2", "residual": res3, "threshold": 1e-10})
    res4 = ball_green_identity_n3(AffineBallMap(n=3, c=4.0, a=2.0), q)
    rows.append({"case": "ball_m2_family", "residual": res4, "threshold": 1e-4})
    criteria = {f"|residual| < threshold at {r['case']}": abs(r["residual"]) < r["threshold"]
                for r in rows}
    detail = "; ".join(f"{r['case']}={r['residual']:.2e}" for r in rows)
    return rows, criteria, detail


RUNNERS = {
    "reproduce-strip": run_reproduce_strip,
    "verify-t1": run_verify_t1,
    "verify-t2": run_verify_t2,
    "verify-t3": run_verify_t3,
    "laplacian-audit": run_laplacian_audit,
    "green-audit": run_green_audit,
    "calderon-estimate": run_calderon_estimate,
}

#: the RunConfig fields each scenario reads besides out and format; a key
#: given for any other field is refused
READS = {
    "reproduce-strip": ("n", "quadrature"),
    "verify-t1": ("seeds", "k", "r", "degree", "c1c2", "quadrature"),
    "verify-t2": ("seeds", "k", "r", "degree", "quadrature"),
    "verify-t3": ("quadrature",),
    "laplacian-audit": ("seeds", "k", "degree"),
    "green-audit": ("degree", "quadrature"),
    "calderon-estimate": ("seeds", "degree", "quadrature"),
}

SCENARIOS = tuple(RUNNERS)


def _keys(scenario: str) -> list[str]:
    """The keys ``scenario`` reads, in KEYS order: format, out and config,
    and its READS, with quadrature standing for QuadratureSpec's fields."""
    reads = {"format", "out", "config", *READS[scenario]}
    if "quadrature" in reads:
        reads.update(f.name for f in fields(QuadratureSpec))
    return [key for key in KEYS if key in reads]


#: header of a table with no rows; any other table's comes from its first row
EMPTY_TABLE_COLUMNS = {"verify-t1": T1_COLUMNS, "laplacian-audit": AUDIT_COLUMNS}


def run(cfg: RunConfig) -> int:
    """Execute a scenario, write its table, print one PASS/FAIL line; it
    passes iff every criterion holds, and a FAIL line names those that fail."""
    rows, criteria, detail = RUNNERS[cfg.scenario](cfg)
    path = cfg.out or f"{cfg.scenario}.{cfg.format}"
    header = list(rows[0]) if rows else list(EMPTY_TABLE_COLUMNS[cfg.scenario])
    write_rows(header, rows, path, cfg.format)
    failing = "".join(f"{name} fails; " for name, holds in criteria.items() if not holds)
    print(f"[{'FAIL' if failing else 'PASS'}] {cfg.scenario}: {failing}{detail} -> {path}")
    return 1 if failing else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except HqzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
