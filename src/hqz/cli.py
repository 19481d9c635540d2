"""Reproducible scenario runner.

    hqz <scenario> [--key=value ...] [--config PATH] [--out PATH] [--format csv|jsonl]

One subcommand per verifiable claim: the three theorems (verify-t1,
verify-t2 with its tightness witnesses, verify-t3 with the ball
families' limits), the strip corollary, and the audits of the proof's
lemmas and constants.  Every scenario runs with zero configuration,
writes one table, prints a single PASS/FAIL line that names each
acceptance criterion that fails, and exits 0 iff PASS.  A plain-text
key=value config file can seed the options, the environment variable
HQZ_SEED overrides its seed count where the scenario reads seeds, and
command-line flags override both.  A flag's value follows its "=" or is
the next argument, which cannot start with "--".
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
from .functionals import calderon_norms, calderon_ratio_estimate, hardy_norm_estimate
from .laplacian import audit_laplacians, disk_green_identity, laplacian_ratio_sup
from .planar import (PlanarHarmonicMap, dilatation_sup, map_to_json, random_qr_map,
                     strip_example)
from .quadrature import QuadratureSpec
from .series import DEGREE_CAP, ComplexSeries, random_series
from .theorems import fuzz_search, verify_T1, verify_T2, verify_T3_affine

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
    args: dict  # the runner's keyword arguments: SCENARIO_TABLE's defaults, or the keys given
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
    given: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                key, eq, raw = (s.strip() for s in line.split("#", 1)[0].partition("="))
                if key and not eq:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                if eq:
                    given[key] = raw if key == "scenario" else _parse_value(
                        key, raw, f"{path}:{lineno}: ")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return given


def parse_args(argv: list[str]) -> RunConfig:
    if not argv:
        raise ConfigError(
            "usage: hqz <scenario> [--key=value ...] [--config PATH] [--out PATH] "
            "[--format csv|jsonl]\n"
            "scenarios: " + " ".join(SCENARIOS))
    scenario, tokens, flags = argv[0], iter(argv[1:]), {}
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from: "
                          + ", ".join(SCENARIOS))
    for tok in tokens:
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key, eq, val = tok[2:].partition("=")
        if not eq:  # the value is the next token, which cannot start with --
            val = next(tokens, None)
            if val is None or val.startswith("--"):
                raise ConfigError(f"flag --{key} needs a value")
        key = key.replace("-", "_")
        flags[key] = _parse_value(key, val)
    given = _read_config_file(flags["config"]) if "config" in flags else {}
    if given.pop("scenario", scenario) != scenario:
        raise ConfigError("config file scenario differs from command line")
    given.pop("config", None)  # a config line inside the file is ignored
    _, defaults, _ = SCENARIO_TABLE[scenario]
    reads = {"format", "out", "config", *defaults}
    if "quadrature" in reads:
        reads.update(f.name for f in fields(QuadratureSpec))
    if "seeds" in reads and "HQZ_SEED" in os.environ:  # over the file's seeds, under --seeds
        given["seeds"] = _parse_value("seeds", os.environ["HQZ_SEED"])
    given.update(flags)
    for key, (_, valid, want) in KEYS.items():
        if valid is not None and key in given and not valid(given[key]):
            raise ConfigError(f"{key} must be {want}, got {given[key]!r}")
    quad = {f.name: given[f.name] for f in fields(QuadratureSpec) if f.name in given}
    try:  # the quadrature keys not given keep QuadratureSpec's defaults
        quadrature = QuadratureSpec(**quad)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    unread = [key for key in given if key not in reads]
    if unread:
        raise ConfigError(f"{scenario} does not read {', '.join(unread)}; "
                          f"it reads {', '.join(key for key in KEYS if key in reads)}")
    if quad:  # else the entry's default
        given["quadrature"] = quadrature
    args = {key: given.get(key, default) for key, default in defaults.items()}
    return RunConfig(scenario, args, **{key: given[key] for key in ("out", "format")
                                        if key in given})


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
# scenario implementations: each takes the keys its SCENARIO_TABLE entry
# names and returns (rows, criteria, detail), criteria naming each
# condition that must hold, written so that a NaN fails it; the details
# take np.min and np.max, which keep a NaN where min and max drop it
# ---------------------------------------------------------------------------

#: columns of the tables that --seeds=0 leaves without rows
T1_COLUMNS = ("seed", "k", "lhs", "rhs", "margin", "quad_error", "empirical_constant")
AUDIT_COLUMNS = ("seed", "k", "points", "skipped", "max_rel_abs_f", "max_rel_ulogu",
                 "max_ratio", "K2_bound")


def run_reproduce_strip(n, quadrature):
    values = [hardy_norm_estimate(strip_example(j), quadrature)[0] for j in range(1, n + 1)]
    rows = [{"n": j, "h1_norm": norm, "gap": 1.0 - norm, "gap_envelope": 2.0 / (j + 1.0)}
            for j, norm in enumerate(values, 1)]
    criteria = {"every norm < 1": all(v < 1.0 for v in values),
                "norms increase": all(b > a for a, b in zip(values, values[1:])),
                "gap(32) < 2/33": n < 32 or (1.0 - values[31]) < 2.0 / 33.0,
                "|norm(1) - 2/pi| < 1e-9": abs(values[0] - 2.0 / math.pi) < 1e-9}
    detail = (f"norms in [{values[0]:.6f}, {values[-1]:.6f}], all < 1, "
              f"gap(32) = {1.0 - values[31]:.6f}" if n >= 32 else
              f"norms in [{values[0]:.6f}, {values[-1]:.6f}]")
    return rows, criteria, detail


def _h_corpus(seeds: int, degree: int) -> list[tuple[str, ComplexSeries]]:
    """Estimator corpus: the monomial z (the known ratio witness) plus the
    deterministic random series."""
    corpus = [("z", ComplexSeries((0j, 1.0 + 0j)))]
    corpus.extend((f"seed{seed}", random_series(seed, degree, zero_constant=True))
                  for seed in range(seeds))
    return corpus


def run_calderon_estimate(seeds, degree, quadrature):
    corpus = _h_corpus(seeds, degree)
    norms = calderon_norms([H for _, H in corpus], quadrature)
    rows = [{"member": label, "norm_H": nh, "norm_GH": ng,
             "ratio_H_over_GH": nh / ng, "ratio_GH_over_H": ng / nh}
            for (label, _), (nh, ng) in zip(corpus, norms)]
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


def run_verify_t1(seeds, k, r, degree, c1c2, quadrature):
    if c1c2 is None:  # the constant the corpus estimates
        c1_lb, c2_lb = calderon_ratio_estimate([H for _, H in _h_corpus(seeds, degree)],
                                               quadrature)
        c1c2 = c1_lb * c2_lb
    rows = []
    for seed in range(min(seeds, 20)):
        m = random_qr_map(seed, k, degree)
        rep = verify_T1(m, r, c1c2, quadrature)
        rows.append(dict(zip(T1_COLUMNS, (seed, k, rep.lhs, rep.rhs, rep.margin,
                                          rep.quad_error,
                                          rep.params["empirical_constant"]))))
    criteria = {"c1c2 finite and positive": math.isfinite(c1c2) and c1c2 > 0,
                "margin >= -quad_error": all(r["margin"] >= -r["quad_error"] for r in rows)}
    detail = (f"c1c2 = {c1c2:.6f}; min margin = {np.min([r['margin'] for r in rows]):.6f}"
              if rows else "empty corpus, vacuous PASS")
    return rows, criteria, detail


def run_verify_t2(seeds, k, r, degree, quadrature):
    rows = []
    for k in k if isinstance(k, tuple) else (k,):
        summary = fuzz_search(seeds, k, degree, quadrature, r=r)
        rows.append({"k": k, "seeds": summary.seeds,
                     "worst_margin": summary.worst_margin,
                     "best_ratio": summary.best_ratio, "witness": summary.witness})
    worst = float(np.min([r["worst_margin"] for r in rows]))
    constant = PlanarHarmonicMap(g=ComplexSeries.constant(1.0),
                                 h=ComplexSeries.zero())
    degenerate = verify_T2(constant, 1.0, quadrature, K=1.0)
    rows.append({"k": 0.0, "seeds": 0, "worst_margin": degenerate.margin,
                 "best_ratio": degenerate.lhs / degenerate.rhs,
                 "witness": map_to_json(constant)})
    criteria = {"worst margin >= -1e-9": all(r["worst_margin"] >= -1e-9
                                             for r in rows if r["seeds"] > 0),
                "degenerate margin == 0": degenerate.margin == 0.0}
    detail = f"worst margin over corpus = {worst!r}; degenerate margin = {degenerate.margin!r}"
    return rows, criteria, detail


def run_verify_t3(quadrature):
    rows = []
    for m in (2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        rep = verify_T3_affine(AffineBallMap(n=3, c=m * m, a=m), quadrature)
        rows.append({"family": "m", "n": 3, "param": m, "lhs_X": rep.lhs,
                     "Y": rep.params["Y"], "rhs": rep.rhs, "margin": rep.margin,
                     "ratio": rep.lhs / rep.rhs, "phi": phi_of_m(m)})
    m_rows = rows[:]
    deviations = []  # one list per n, over the a scan
    for n in range(2, 9):
        deviations.append([])
        for a in (0.2, 0.1, 0.05, 0.01):
            rep = verify_T3_affine(AffineBallMap(n=n, c=1.0, a=a), quadrature)
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


def run_laplacian_audit(seeds, k, degree):
    rows = []
    radii = (0.25, 0.55, 0.8)
    angles = [2.0 * math.pi * j / 5 for j in range(5)]
    points = [r * complex(math.cos(t), math.sin(t)) for r in radii for t in angles]
    pts = np.asarray(points, dtype=complex)
    for seed in range(seeds):
        m = random_qr_map(seed, k, degree)
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


def run_green_audit(degree, quadrature):
    rows = []
    m1 = PlanarHarmonicMap(g=ComplexSeries((2.0, 1.0)), h=ComplexSeries.zero())
    res1 = disk_green_identity(m1, 0.9, quadrature)
    rows.append({"case": "disk_2_plus_z", "residual": res1, "threshold": 1e-6})
    m2 = random_qr_map(7, 0.3, degree)
    res2 = disk_green_identity(m2, 0.9, quadrature)
    rows.append({"case": "disk_fuzz_k03", "residual": res2, "threshold": 1e-6})
    res3 = ball_green_calibration(quadrature)
    rows.append({"case": "ball_calibration_x2", "residual": res3, "threshold": 1e-10})
    res4 = ball_green_identity_n3(AffineBallMap(n=3, c=4.0, a=2.0), quadrature)
    rows.append({"case": "ball_m2_family", "residual": res4, "threshold": 1e-4})
    criteria = {f"|residual| < threshold at {r['case']}": abs(r["residual"]) < r["threshold"]
                for r in rows}
    detail = "; ".join(f"{r['case']}={r['residual']:.2e}" for r in rows)
    return rows, criteria, detail


#: the defaults that several scenarios share
R, DEGREE, QUADRATURE = {"r": 1.0}, {"degree": 16}, {"quadrature": QuadratureSpec()}

#: each scenario: its runner, the keys it reads besides format, out and
#: config with their defaults, in the runner's parameter order, and the
#: header of its table when it has no rows (any other table's comes from
#: its first row); "quadrature" stands for QuadratureSpec's keys, c1c2
#: None for the constant the corpus estimates, and verify-t2's tuple of k
#: for one row per k.  A key given that the scenario does not read is refused
SCENARIO_TABLE = {
    "reproduce-strip": (run_reproduce_strip, dict(n=64, **QUADRATURE), None),
    "verify-t1": (run_verify_t1, dict(seeds=100, k=0.3, **R, **DEGREE, c1c2=None,
                                      **QUADRATURE), T1_COLUMNS),
    "verify-t2": (run_verify_t2, dict(seeds=200, k=(0.0, 0.1, 0.3, 0.5), **R, **DEGREE,
                                      **QUADRATURE), None),
    "verify-t3": (run_verify_t3, QUADRATURE, None),
    "laplacian-audit": (run_laplacian_audit, dict(seeds=40, k=0.3, **DEGREE), AUDIT_COLUMNS),
    "green-audit": (run_green_audit, dict(DEGREE, **QUADRATURE), None),
    "calderon-estimate": (run_calderon_estimate, dict(seeds=100, **DEGREE, **QUADRATURE),
                          None),
}

SCENARIOS = tuple(SCENARIO_TABLE)


def run(cfg: RunConfig) -> int:
    """Execute a scenario, write its table, print one PASS/FAIL line; it
    passes iff every criterion holds, and a FAIL line names those that fail."""
    runner, _, empty_columns = SCENARIO_TABLE[cfg.scenario]
    rows, criteria, detail = runner(**cfg.args)
    path = cfg.out or f"{cfg.scenario}.{cfg.format}"
    header = list(rows[0]) if rows else list(empty_columns)
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
