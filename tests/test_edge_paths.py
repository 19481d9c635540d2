import json

import pytest

from hqz import (ComplexSeries, NoConvergence, PlanarHarmonicMap,
                 QuadratureSpec, circle_mean_p)
from hqz.cli import main, parse_args
from hqz import errors
from hqz.errors import ConfigError


def test_circle_mean_no_convergence():
    # |1 + z| has a corner at z = -1; one doubling cannot reach 1e-30
    m = PlanarHarmonicMap(g=ComplexSeries((1.0, 1.0)), h=ComplexSeries.zero())
    starved = QuadratureSpec(circle_nodes=16, radial_nodes=8,
                             refinement_limit=1, abs_tol=1e-30)
    with pytest.raises(NoConvergence):
        circle_mean_p([m], 1.0, starved)


def test_one_error_type_per_way_a_run_fails():
    assert set(errors.HqzError.__subclasses__()) == {
        errors.DomainError, errors.NoConvergence, errors.HypothesisViolation,
        errors.ConfigError}
    assert issubclass(errors.DomainError, ValueError)
    assert issubclass(errors.ConfigError, ValueError)


def test_config_scenario_mismatch(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = verify-t1\nseeds = 1\n")
    with pytest.raises(ConfigError, match="^config file scenario differs"):
        parse_args(["verify-t2", "--config", str(path)])


def test_config_scenario_match_accepted(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = verify-t2\nseeds = 1\n")
    cfg = parse_args(["verify-t2", "--config", str(path)])
    assert cfg.seeds == 1


def test_jsonl_serializes_nonfinite_fields(tmp_path, capsys):
    out = tmp_path / "vacuous.jsonl"
    code = main(["verify-t2", "--seeds=0", "--format=jsonl", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["worst_margin"] == "inf"
    assert record["witness"] == ""
