import ast
import csv
import dataclasses
import inspect
import itertools
import json
import math
import re
import shlex
from pathlib import Path

import pytest

import hqz.cli
import hqz.theorems
from hqz import (AffineBallMap, X_of, Y_of, dilatation_sup, fuzz_search, map_from_json,
                 phi_of_m, random_qr_map, ratio_limit_scan)
from hqz.cli import KEYS, SCENARIO_TABLE, SCENARIOS, RunConfig, main, parse_args
from hqz.errors import ConfigError, DomainError
from hqz.quadrature import QuadratureSpec

REPO = Path(__file__).resolve().parents[1]

#: the runner arguments of verify-t2 when no key is given
T2_DEFAULTS = {"seeds": 200, "k": (0.0, 0.1, 0.3, 0.5), "r": 1.0, "degree": 16,
               "quadrature": QuadratureSpec()}


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


class TestParsing:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            parse_args(["no-such-scenario"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_args(["verify-t2", "--bogus=3"])

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_args(["verify-t2", "--seeds=abc"])

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            parse_args(["verify-t2", "--format=xml"])

    def test_equals_and_space_forms(self):
        cfg = parse_args(["verify-t2", "--seeds=7", "--format", "jsonl"])
        assert cfg.args["seeds"] == 7
        assert cfg.format == "jsonl"

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseeds = 9\nk = 0.25\n")
        cfg = parse_args(["verify-t2", "--config", str(path)])
        assert cfg.args["seeds"] == 9
        assert cfg.args["k"] == 0.25

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 9\nmystery = 1\n")
        with pytest.raises(ConfigError) as exc:
            parse_args(["verify-t2", "--config", str(path)])
        assert str(exc.value) == f"{path}:2: unknown key 'mystery'"

    def test_config_line_inside_a_config_file_is_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 9\nconfig = no-such-file.cfg\n")
        cfg = parse_args(["verify-t2", "--config", str(path)])
        assert cfg == RunConfig(scenario="verify-t2", args={**T2_DEFAULTS, "seeds": 9})

    def test_out_is_a_run_config_field(self):
        assert parse_args(["verify-t2", "--out", "x"]).out == "x"

    def test_the_first_bad_key_in_table_order_is_reported(self):
        # given in reverse order: format, seeds, n, k, r, degree, c1c2
        flags = ["--c1c2=0", "--degree=0", "--r=2", "--k=1", "--n=0", "--seeds=-1",
                 "--format=xml"]
        for end in range(len(flags), 0, -1):
            key = flags[end - 1][2:].split("=")[0]
            with pytest.raises(ConfigError) as exc:
                parse_args(["verify-t2", *flags[:end]])
            assert str(exc.value).startswith(f"{key} must be ")

    def test_cli_overrides_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 9\n")
        cfg = parse_args(["verify-t2", "--config", str(path), "--seeds=3"])
        assert cfg.args["seeds"] == 3

    def test_unset_keys_mean_scenario_default(self):
        cfg = parse_args(["verify-t2"])
        assert cfg.args == T2_DEFAULTS
        # out and format keep RunConfig's defaults
        assert cfg == RunConfig(scenario="verify-t2", args=T2_DEFAULTS)

    def test_usage_lists_the_scenarios_in_order(self):
        with pytest.raises(ConfigError) as exc:
            parse_args([])
        assert str(exc.value).splitlines() == [
            "usage: hqz <scenario> [--key=value ...] [--config PATH] [--out PATH] "
            "[--format csv|jsonl]",
            "scenarios: reproduce-strip verify-t1 verify-t2 verify-t3 laplacian-audit "
            "green-audit calderon-estimate"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 9\n")
        monkeypatch.setenv("HQZ_SEED", "4")
        cfg = parse_args(["verify-t2", "--config", str(path)])
        assert cfg.args["seeds"] == 4
        # explicit flag still wins over the environment
        cfg = parse_args(["verify-t2", "--config", str(path), "--seeds=2"])
        assert cfg.args["seeds"] == 2


class TestExitCodes:
    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["nope"]) == 2

    @pytest.mark.parametrize("flag", ["--abs_tol=nan", "--circle_nodes=0",
                                      "--seeds=-5", "--n=-1", "--n=0", "--k=-0.5",
                                      "--k=1", "--r=2", "--r=0", "--r=nan",
                                      "--degree=-1", "--degree=0", "--degree=80",
                                      "--degree=64", "--c1c2=0", "--c1c2=inf",
                                      "--abs_tol=inf"])
    def test_bad_input_exits_2(self, flag, tmp_path, capsys):
        code, out = run_cli(["verify-t2", flag], tmp_path, "f.csv")
        assert code == 2
        key, raw = flag[2:].split("=")
        kind, valid, want = KEYS[key]
        if valid is None:  # a quadrature key: QuadratureSpec's own message
            with pytest.raises(DomainError) as exc:
                QuadratureSpec(**{key: kind(raw)})
            assert capsys.readouterr().err == f"config error: {exc.value}\n"
        else:
            assert capsys.readouterr().err == (
                f"config error: {key} must be {want}, got {kind(raw)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--k"], "flag --k needs a value"),
        (["seeds=3"], "unexpected argument 'seeds=3'"),
        (["--k", "--out", "x.csv"], "flag --k needs a value"),
        (["--config", "--out", "x.csv"], "flag --config needs a value")],
        ids=["no-value", "bare-token", "flag-as-value", "flag-as-config-path"])
    def test_a_malformed_flag_exits_2(self, args, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # --k must be the last token, so the table has no --out
        assert main(["verify-t2", *args]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_value_after_equals_may_start_with_dashes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify-t2", "--seeds=0", "--out=--x.csv"]) == 0
        assert capsys.readouterr().out.endswith(" -> --x.csv\n")
        assert [p.name for p in tmp_path.iterdir()] == ["--x.csv"]

    def test_an_unreadable_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        with pytest.raises(OSError) as exc:
            open(path, encoding="utf-8")
        assert main(["verify-t2", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config file {path}: {exc.value}\n")

    def test_a_config_line_without_equals_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 9\nseeds 3\n")
        assert main(["verify-t2", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {path}:2: expected key=value\n"

    def test_degree_cap_is_named(self, tmp_path, capsys):
        # omega takes degree d, so g' needs d <= 63 to fit below the cap 64
        code, _ = run_cli(["verify-t2", "--degree=64"], tmp_path, "f.csv")
        assert code == 2
        assert "below the degree cap 64" in capsys.readouterr().err

    def test_unwritable_path_exits_3(self, capsys):
        assert main(["verify-t2", "--seeds=0", "--out", "/no/such/dir/x.csv"]) == 3

    def test_vacuous_fuzz_passes(self, tmp_path, capsys):
        code, out = run_cli(["verify-t2", "--seeds=0"], tmp_path, "f.csv")
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.parametrize("scenario", ["verify-t1", "laplacian-audit"])
    def test_empty_corpus_is_a_vacuous_pass(self, scenario, tmp_path, capsys):
        code, out = run_cli([scenario, "--seeds=0"], tmp_path, "e.csv")
        assert code == 0
        assert f"[PASS] {scenario}: empty corpus, vacuous PASS" in capsys.readouterr().out
        # the header row alone, as the table of one seed starts
        _, one = run_cli([scenario, "--seeds=1"], tmp_path, "one.csv")
        header = one.read_text().splitlines()[0]
        assert header.startswith("seed,k,")
        assert out.read_text() == header + "\n"

    @pytest.mark.parametrize("args, keys", [
        (["verify-t3", "--n=5"], "n; it reads format, out, config, circle_nodes, radial_nodes, "
                                 "refinement_limit, abs_tol"),
        (["laplacian-audit", "--circle_nodes=16"], "circle_nodes; it reads format, seeds, k, "
                                                   "degree, out, config"),
        (["green-audit", "--seeds=3", "--k=0.9"], "seeds, k; it reads format, degree, out, "
                                                  "config, circle_nodes, radial_nodes, "
                                                  "refinement_limit, abs_tol")],
        ids=["verify-t3", "laplacian-audit", "green-audit"])
    def test_a_key_the_scenario_does_not_read_exits_2(self, args, keys, tmp_path, capsys):
        code, out = run_cli(args, tmp_path, "u.csv")
        assert code == 2
        assert capsys.readouterr().err == f"config error: {args[0]} does not read {keys}\n"
        assert not out.exists()

    def test_a_config_file_key_the_scenario_does_not_read_is_refused(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 9\n")
        with pytest.raises(ConfigError, match=r"^verify-t3 does not read seeds; it reads "):
            parse_args(["verify-t3", "--config", str(path)])

    @pytest.mark.parametrize("text, flags, unread", [
        ("seeds = 9\n", ["--seeds=3"], "seeds"),
        ("k = 0.5\n", ["--k=0.1", "--seeds=3", "--k=0.2"], "k, seeds")],
        ids=["seeds", "k-thrice"])
    def test_an_unread_key_is_named_once(self, text, flags, unread, tmp_path):
        # in the order first given: the file's keys, then the flags'
        path = tmp_path / "a.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            parse_args(["verify-t3", "--config", str(path), *flags])
        assert str(exc.value) == (
            f"verify-t3 does not read {unread}; it reads format, out, config, circle_nodes, "
            "radial_nodes, refinement_limit, abs_tol")

    def test_env_seed_is_no_key_given(self, monkeypatch):
        monkeypatch.setenv("HQZ_SEED", "4")
        assert parse_args(["verify-t3"]).scenario == "verify-t3"

    def test_env_seed_runs_a_scenario_without_seeds(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HQZ_SEED", "4")
        code, out = run_cli(["verify-t3"], tmp_path, "t3.csv")
        assert code == 0
        assert capsys.readouterr().out.startswith("[PASS] verify-t3: ")
        assert out.exists()

    @pytest.mark.parametrize("env_seed", ["-1", "abc"])
    def test_a_bad_env_seed_is_not_read_without_seeds(self, env_seed, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("HQZ_SEED", env_seed)
        code, out = run_cli(["verify-t3"], tmp_path, "t3.csv")
        assert code == 0
        assert capsys.readouterr().out.startswith("[PASS] verify-t3: ")
        assert out.exists()

    def test_a_bad_env_seed_is_refused_where_seeds_are_read(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setenv("HQZ_SEED", "-1")
        code, out = run_cli(["verify-t2"], tmp_path, "t2.csv")
        assert code == 2
        assert capsys.readouterr().err == "config error: seeds must be nonnegative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_a_table_entry_is_its_runners_parameters(self, scenario):
        # run calls runner(**args), so every key is a required parameter, in
        # the table's order, and the runner's body reads each one
        runner, defaults, _ = SCENARIO_TABLE[scenario]
        params = inspect.signature(runner).parameters
        assert list(params) == list(defaults)
        assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
                   for p in params.values())
        body = ast.parse(inspect.getsource(runner)).body[0].body
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert set(params) <= read

    def test_readme_keys_and_defaults_table_is_the_scenario_table(self):
        def cell(defaults, key):
            if key not in defaults:
                return "-"
            value = defaults[key]
            if value is None:
                return "estimated"
            if value == QuadratureSpec():
                return "`QuadratureSpec()`"
            return ", ".join(map(str, value if isinstance(value, tuple) else (value,)))
        keys = ("seeds", "n", "k", "r", "degree", "c1c2", "quadrature")
        table = ["| scenario | " + " | ".join(keys) + " |",
                 "| --- " * (len(keys) + 1) + "|"]
        table += [f"| `{s}` | " + " | ".join(cell(d, k) for k in keys) + " |"
                  for s, (_, d, _) in SCENARIO_TABLE.items()]
        text = (REPO / "README.md").read_text(encoding="utf-8")
        assert "\n".join(table) + "\n" in text
        assert {key for _, d, _ in SCENARIO_TABLE.values() for key in d} == set(keys)

    def test_every_readme_example_parses(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        examples = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                    for line in block.splitlines() if "hqz " in line]
        examples += re.findall(r"`(hqz [a-z][^`]*)`", text)
        assert len(examples) >= 4
        for example in examples:
            words = shlex.split(example)
            parse_args(words[words.index("hqz") + 1:])

    def test_every_ci_command_parses(self, tmp_path, monkeypatch):
        # each hqz line of the workflow, in a directory holding the run.cfg
        # it writes and with the environment the line sets; a line that CI
        # expects to exit 2 must raise ConfigError
        lines = [line.strip() for line in (REPO / ".github" / "workflows" / "tests.yml")
                 .read_text(encoding="utf-8").splitlines()]
        config = next(re.fullmatch(r"printf '(.*)' > run\.cfg", line) for line in lines
                      if line.endswith("> run.cfg"))[1]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(config.replace("\\n", "\n"))
        parsed, refused = [], []
        for line, after in zip(lines, [*lines[1:], ""]):
            words = list(shlex.shlex(line, posix=True, punctuation_chars=True))
            if "hqz" not in words:
                continue
            start = words.index("hqz")
            argv = list(itertools.takewhile(lambda w: w[0] not in ";&|<>", words[start + 1:]))
            env = dict(w.split("=", 1) for w in words[:start] if w[0].isupper())
            with monkeypatch.context() as m:
                for name, value in env.items():
                    m.setenv(name, value)
                for scenario in SCENARIOS if "$s" in argv else ("$s",):  # the loop over them
                    args = [scenario if w == "$s" else w for w in argv]
                    if after == 'test "$code" -eq 2':
                        with pytest.raises(ConfigError):
                            parse_args(args)
                        refused.append(" ".join(args))
                    else:
                        parsed.append(parse_args(args))
        assert refused == ["verify-t1 --c1c2=inf", "verify-t2 --seeds=1 --abs_tol=inf",
                           "verify-t2 --k --out x.csv"]
        assert [cfg.scenario for cfg in parsed[:len(SCENARIOS)]] == list(SCENARIOS)
        # the config-file line: the file's k, and HQZ_SEED over its seeds
        assert [(cfg.args["seeds"], cfg.args["k"]) for cfg in parsed
                if cfg.out == "cfg.csv"] == [(3, 0.25)]
        assert len(parsed) == len(SCENARIOS) + 5


class TestScenarioRuns:
    def test_sharpness(self, tmp_path, capsys):
        # the m rows: X, 2Y and the closed form phi, bit for bit
        code, out = run_cli(["verify-t3"], tmp_path, "s.csv")
        assert code == 0
        rows = [r for r in csv.DictReader(out.open()) if r["family"] == "m"]
        assert [r["param"] for r in rows] == ["2", "5", "10", "20", "50", "100"]
        for r in rows:
            fam = AffineBallMap(n=3, c=float(r["param"]) ** 2, a=float(r["param"]))
            assert float(r["lhs_X"]) == X_of(fam, QuadratureSpec())
            assert float(r["rhs"]) == 2.0 * Y_of(fam, QuadratureSpec())
            assert float(r["phi"]) == phi_of_m(float(r["param"]))
        assert abs(float(rows[0]["lhs_X"]) - 1.0 / 3.0) < 1e-8

    def test_ratio_limit_rows(self, tmp_path, capsys):
        # the a rows: ratio_limit_scan's X, Y and X/Y for every n, bit for bit
        code, out = run_cli(["verify-t3"], tmp_path, "r.csv")
        assert code == 0
        rows = [r for r in csv.DictReader(out.open()) if r["family"] == "a"]
        scan = [s for n in range(2, 9)
                for s in ratio_limit_scan(n, (0.2, 0.1, 0.05, 0.01), QuadratureSpec())]
        assert [(int(r["n"]), float(r["param"])) for r in rows] == [(s.n, s.a) for s in scan]
        for r, s in zip(rows, scan):
            assert (float(r["lhs_X"]), float(r["Y"])) == (s.X, s.Y)
            assert float(r["ratio"]) == s.ratio / (s.n - 1)
            assert r["phi"] == "nan"

    @pytest.mark.parametrize("k", [0.0, 0.9])
    def test_a_k_row_is_the_fuzz_search_summary(self, k, tmp_path, capsys):
        code, out = run_cli(["verify-t2", f"--k={k}", "--seeds=5", "--format=jsonl"],
                            tmp_path, "k.jsonl")
        assert code == 0
        row, degenerate = map(json.loads, out.read_text().splitlines())
        assert row == {"k": k, **dataclasses.asdict(fuzz_search(5, k, 16, QuadratureSpec()))}
        assert map_from_json(degenerate["witness"]).g.coeffs.tolist() == [1.0]

    def test_fuzz_csv_reruns_byte_identical(self, tmp_path, capsys):
        _, out1 = run_cli(["verify-t2", "--seeds=3", "--k=0.3"], tmp_path, "a.csv")
        _, out2 = run_cli(["verify-t2", "--seeds=3", "--k=0.3"], tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_fuzz_jsonl_records(self, tmp_path, capsys):
        code, out = run_cli(["verify-t2", "--seeds=2", "--k=0.1", "--format=jsonl"],
                            tmp_path, "f.jsonl")
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # the k row and the degenerate row
        record = json.loads(lines[0])
        assert (record["k"], record["seeds"]) == (0.1, 2)
        assert record["worst_margin"] >= -1e-9

    def test_fuzz_at_degree_40_certifies_every_k(self, tmp_path, capsys):
        code, out = run_cli(["verify-t2", "--k=0.5", "--degree=40", "--seeds=20"],
                            tmp_path, "f.csv")
        assert code == 0
        assert capsys.readouterr().out.startswith("[PASS] verify-t2: ")
        witness = map_from_json(next(csv.DictReader(out.open()))["witness"])
        assert witness.omega.degree == 40
        for seed in range(20):
            assert dilatation_sup(random_qr_map(seed, 0.5, 40)).k_upper <= 0.5

    def test_green_audit(self, tmp_path, capsys):
        code, out = run_cli(["green-audit"], tmp_path, "g.csv")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for r in rows:
            assert abs(float(r["residual"])) < float(r["threshold"])

    def test_laplacian_audit_small(self, tmp_path, capsys):
        code, out = run_cli(["laplacian-audit", "--seeds=3"], tmp_path, "l.csv")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for r in rows:
            assert float(r["max_rel_abs_f"]) < 1e-5
            assert float(r["max_rel_ulogu"]) < 1e-5

    def test_laplacian_audit_nan_deviation_fails(self, tmp_path, capsys, monkeypatch):
        real = hqz.cli.audit_laplacians
        monkeypatch.setattr(hqz.cli, "audit_laplacians", lambda m, pts: dataclasses.replace(
            real(m, pts), max_rel_abs_f=float("nan")))
        code, _ = run_cli(["laplacian-audit", "--seeds=1"], tmp_path, "l.csv")
        assert code != 0
        assert capsys.readouterr().out.startswith(
            "[FAIL] laplacian-audit: FD deviations <= 1e-5 fails; ")

    def test_calderon_no_convergence_names_the_first_series(self, tmp_path, capsys):
        # from 16 nodes seed 33's ||H||_1 still moves after 12 doublings, and
        # the 34 series before it in its stack settle at other levels
        code, out = run_cli(["calderon-estimate", "--circle_nodes=16", "--seeds=150"],
                            tmp_path, "c.csv")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ||H||_1: 65536 nodes, last change 2.764e-09 > abs_tol 1.000e-10\n")
        assert not out.exists()

    def test_calderon_small(self, tmp_path, capsys):
        code, out = run_cli(["calderon-estimate", "--seeds=5"], tmp_path, "c.csv")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["member"] == "z"
        assert rows[-1]["member"] == "max"

    @pytest.mark.parametrize("args, header", [
        (["reproduce-strip", "--n=8"], "n,h1_norm,gap,gap_envelope"),
        (["verify-t1", "--seeds=2"], "seed,k,lhs,rhs,margin,quad_error,empirical_constant"),
        (["verify-t2", "--seeds=2"], "k,seeds,worst_margin,best_ratio,witness"),
        (["verify-t3"], "family,n,param,lhs_X,Y,rhs,margin,ratio,phi")])
    def test_scenario_smoke(self, args, header, tmp_path, capsys):
        code, out = run_cli(args, tmp_path, "s.csv")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"[PASS] {args[0]}: ")
        rows = out.read_text().splitlines()
        assert rows[0] == header and len(rows) > 1

    def test_csv_header_row_present(self, tmp_path, capsys):
        _, out = run_cli(["verify-t2", "--seeds=0"], tmp_path, "h.csv")
        first = out.read_text().splitlines()[0]
        assert first == "k,seeds,worst_margin,best_ratio,witness"


def spoiled(field, value):
    """Replace ``field`` of a report by ``value``."""
    return lambda rep, *args: dataclasses.replace(rep, **{field: value})


#: case -> (scenario, the module whose function to spoil, the function, how
#: to spoil its result given the result and the call's arguments, the
#: criterion that must then fail, flags that keep the run short); each
#: scenario's first case is named after it
SPOILED = {
    # strip_example(1) maps 0 to 1/2
    "reproduce-strip": ("reproduce-strip", hqz.cli, "hardy_norm_estimate",
                        lambda rep, m, q: (rep[0] + 1e-8, *rep[1:]) if m(0j) == 0.5 else rep,
                        "|norm(1) - 2/pi| < 1e-9", ["--n=4"]),
    "verify-t1": ("verify-t1", hqz.cli, "verify_T1", spoiled("margin", math.nan),
                  "margin >= -quad_error", ["--seeds=1"]),
    "verify-t2": ("verify-t2", hqz.cli, "fuzz_search", spoiled("worst_margin", math.nan),
                  "worst margin >= -1e-9", ["--seeds=1"]),
    "verify-t2-k": ("verify-t2", hqz.cli, "fuzz_search", spoiled("worst_margin", -1e-6),
                    "worst margin >= -1e-9", ["--k=0.5", "--seeds=1"]),
    "verify-t3": ("verify-t3", hqz.cli, "verify_T3_affine", spoiled("margin", -1e-6),
                  "margin >= -1e-9", []),
    # verify_T3_affine reads X and Y through X_of and Y_of
    "verify-t3-X_of": ("verify-t3", hqz.theorems, "X_of", lambda x, *args: x + 1e-6,
                       "|X - 1/3| <= 1e-8 at m = 2, 5, 10", []),
    "verify-t3-Y_of": ("verify-t3", hqz.theorems, "Y_of",
                       lambda y, m, q: 0.9 * y if (m.n, m.a) == (5, 0.01) else y,
                       "deviations decrease", []),
    "verify-t3-phi": ("verify-t3", hqz.cli, "phi_of_m",
                      lambda phi, m: phi + 1e-6 if m == 2.0 else phi,
                      "|phi - 2Y| <= 1e-7", []),
    "verify-t3-phi-gap": ("verify-t3", hqz.cli, "phi_of_m",
                          lambda phi, m: 1.0 / 3.0 if m == 50.0 else phi,
                          "phi gap decreases over m = 10..100", []),
    "verify-t3-phi-100": ("verify-t3", hqz.cli, "phi_of_m",
                          lambda phi, m: phi + 1e-3 if m == 100.0 else phi,
                          "|phi(100) - 1/3| < 1e-3", []),
    "laplacian-audit": ("laplacian-audit", hqz.cli, "laplacian_ratio_sup",
                        lambda ratio, m: math.inf, "ratio <= K^2 (1 + 1e-9)", ["--seeds=1"]),
    "green-audit": ("green-audit", hqz.cli, "ball_green_calibration", lambda res, q: 1e-9,
                    "|residual| < threshold at ball_calibration_x2", []),
    "calderon-estimate": ("calderon-estimate", hqz.cli, "calderon_norms",
                          lambda norms, corpus, q: [(nh, 10.0 * ng) for nh, ng in norms],
                          "c1 >= sqrt(2) - 1e-9, finite", ["--seeds=1"]),
}


class TestGate:
    @pytest.mark.parametrize("case", [*SCENARIOS, *(c for c in SPOILED if c not in SCENARIOS)])
    def test_a_failing_criterion_is_named(self, case, tmp_path, capsys, monkeypatch):
        # a scenario added without a case here fails on the lookup
        scenario, module, name, spoil, criterion, flags = SPOILED[case]
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: spoil(
            real(*args, **kwargs), *args))
        code, out = run_cli([scenario, *flags], tmp_path, "x.csv")
        assert code == 1
        line = capsys.readouterr().out
        assert line.startswith(f"[FAIL] {scenario}: ") and f"{criterion} fails; " in line
        assert out.exists() and len(out.read_text().splitlines()) > 1

    def test_an_unfounded_constant_fails_t1(self, tmp_path, capsys):
        code, out = run_cli(["verify-t1", "--seeds=2", "--c1c2=1e-6"], tmp_path, "o.csv")
        assert code == 1
        assert capsys.readouterr().out.startswith(
            "[FAIL] verify-t1: margin >= -quad_error fails; c1c2 = 0.000001; min margin = ")
        assert out.exists()


def nan_at_second_member(norms):
    """``calderon_norms``' pairs with the second member's ||G[H]||_1 NaN."""
    return [norms[0], (norms[1][0], math.nan), *norms[2:]]


def nan_at_call(real, index, spoil):
    """``real`` with its result spoiled by ``spoil`` on call number ``index``."""
    calls = []

    def planted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        return spoil(out) if len(calls) == index else out
    return planted


class TestNanInstances:
    def test_a_nan_margin_fails_fuzz(self, tmp_path, capsys, monkeypatch):
        # fuzz_search verifies its seeds as one stack, whose per-map reports
        # _t2_report builds in seed order: the second is seed 1's
        monkeypatch.setattr(hqz.theorems, "_t2_report", nan_at_call(
            hqz.theorems._t2_report, 2, lambda rep: dataclasses.replace(rep, margin=math.nan)))
        code, out = run_cli(["verify-t2", "--k=0.5", "--seeds=3"], tmp_path, "f.csv")
        assert code == 1
        assert capsys.readouterr().out.startswith(
            "[FAIL] verify-t2: worst margin >= -1e-9 fails; worst margin over corpus = nan; ")
        assert next(csv.DictReader(out.open()))["worst_margin"] == "nan"

    def test_a_nan_ratio_fails_calderon_estimate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hqz.cli, "calderon_norms", nan_at_call(
            hqz.cli.calderon_norms, 1, nan_at_second_member))
        code, out = run_cli(["calderon-estimate", "--seeds=3"], tmp_path, "c.csv")
        assert code == 1
        assert capsys.readouterr().out.startswith(
            "[FAIL] calderon-estimate: c1 >= sqrt(2) - 1e-9, finite fails; "
            "c2 >= 1/sqrt(2) - 1e-9, finite fails; ")
        last = list(csv.DictReader(out.open()))[-1]
        assert (last["member"], last["ratio_H_over_GH"], last["ratio_GH_over_H"]) == (
            "max", "nan", "nan")

    @pytest.mark.parametrize("args, call, field, start, end", [
        (["verify-t1", "--seeds=3"], "verify_T1", "margin",
         "[FAIL] verify-t1: margin >= -quad_error fails; c1c2 = ", "; min margin = nan -> "),
        (["verify-t2", "--seeds=1"], "fuzz_search", "worst_margin",
         "[FAIL] verify-t2: worst margin >= -1e-9 fails; worst margin over corpus = nan; ",
         "degenerate margin = 0.0 -> "),
        (["verify-t3"], "verify_T3_affine", "margin",
         "[FAIL] verify-t3: margin >= -1e-9 fails; min margin = nan, ", ""),
        (["laplacian-audit", "--seeds=2"], "audit_laplacians", "max_rel_ulogu",
         "[FAIL] laplacian-audit: FD deviations <= 1e-5 fails; ",
         "worst FD relative deviation nan over 2 maps -> "),
        (["verify-t3"], "verify_T3_affine", "lhs",
         "[FAIL] verify-t3: |X - 1/3| <= 1e-8 at m = 2, 5, 10 fails; "
         "min margin = 1.563e-10, max |X - 1/3| = nan, ", "")],
        ids=["verify-t1", "verify-t2", "verify-t3", "laplacian-audit", "verify-t3-X"])
    def test_a_fail_detail_shows_a_nan(self, args, call, field, start, end, tmp_path,
                                       capsys, monkeypatch):
        # the second instance (a report's field, or a plain value) is NaN:
        # min and max would drop it from the detail
        monkeypatch.setattr(hqz.cli, call, nan_at_call(getattr(hqz.cli, call), 2, lambda out: (
            math.nan if field is None else dataclasses.replace(out, **{field: math.nan}))))
        code, out = run_cli(args, tmp_path, "n.csv")
        assert code == 1
        printed = capsys.readouterr().out
        assert printed.startswith(start) and printed.endswith(f"{end}{out}\n")

    def test_a_nan_ratio_fails_verify_t1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hqz.functionals, "calderon_norms", nan_at_call(
            hqz.functionals.calderon_norms, 1, nan_at_second_member))
        code, _ = run_cli(["verify-t1", "--seeds=2"], tmp_path, "t.csv")
        assert code == 1
        assert "c1c2 finite and positive fails; " in capsys.readouterr().out
