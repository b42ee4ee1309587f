import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from obstacle_bvp.cli import (EXIT_INPUT, EXIT_OK, EXIT_RANK, EXIT_VERIFY,
                              _solution_table, export_problem, load_problem,
                              main, parse_problem)
from obstacle_bvp.exact import PieceSolution, eval_solution, solve_exact
from obstacle_bvp.examples import get_example
from obstacle_bvp.model import PointCondition, ProblemError
from obstacle_bvp.oracle import DEFAULT_STEP, IntegrationError
from obstacle_bvp.penalty import Obstacle, PenaltyProblem, reformulate


def _write_problem(tmp_path, bvp, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(export_problem(bvp)))
    return str(path)


def _write_single_piece(tmp_path, interval, coeffs, forcing=(1.0,)):
    """u'' = coeffs . (u, u') + forcing on interval, u = 0 at both ends."""
    data = {
        "order": 2,
        "pieces": [{"interval": list(interval), "coeffs": list(coeffs),
                    "forcing": list(forcing)}],
        "conditions": [{"x": x, "deriv": 0, "value": 0.0} for x in interval],
        "continuity": [0, 1],
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(data))
    return str(path)


def _overflow_closed_form(monkeypatch):
    """Every closed-form evaluation is inf, as on a domain where it overflows."""
    monkeypatch.setattr(PieceSolution, "value", lambda self, x, deriv_order=0: np.inf)


class TestProblemFile:
    def test_round_trip_is_bitwise_identical(self, tmp_path):
        entry = get_example("3.1.1")
        path = _write_problem(tmp_path, entry.bvp)
        reparsed = load_problem(path)
        assert reparsed == entry.bvp
        direct = solve_exact(entry.bvp)
        via_file = solve_exact(reparsed)
        for a, b in zip(direct.pieces, via_file.pieces):
            assert a.constants.tolist() == b.constants.tolist()

    def test_round_trip_with_pins(self, tmp_path):
        entry = get_example("3.1.6")
        assert load_problem(_write_problem(tmp_path, entry.bvp)) == entry.bvp

    def test_sign_is_normalized_on_parse(self):
        data = {
            "order": 2,
            "pieces": [{"interval": [0.0, 1.0], "sign": -1,
                        "coeffs": [1.0], "forcing": [1.0]}],
            "conditions": [],
            "continuity": [0, 1],
        }
        bvp = parse_problem(data)
        assert bvp.pieces[0].coeffs == (-1.0, 0.0)
        assert bvp.pieces[0].forcing == (-1.0,)

    def test_malformed_rejected(self):
        with pytest.raises(ProblemError):
            parse_problem({"pieces": []})


class TestCmdSolve:
    def test_success_and_table_shape(self, tmp_path, capsys):
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        out = tmp_path / "table.csv"
        code = main(["solve", "--input", path, "--output", str(out), "--samples", "41"])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,piece,u,du1"
        assert len(lines) == 42
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        pieces = [int(line.split(",")[1]) for line in lines[1:]]
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
        assert pieces == sorted(pieces)
        captured = capsys.readouterr()
        assert "constants:" in captured.out

    def test_rank_deficiency_gives_pin_advice(self, tmp_path, capsys):
        bvp = dataclasses.replace(get_example("3.1.6").bvp, pins=())
        path = _write_problem(tmp_path, bvp)
        code = main(["solve", "--input", path, "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_RANK
        assert "pin" in capsys.readouterr().err

    def test_non_finite_coefficient_is_input_error(self, tmp_path, capsys):
        path = _write_single_piece(tmp_path, (0.0, 1.0), (math.nan, 0.0))
        code = main(["solve", "--input", path, "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("interval, coeffs", [((0.0, 1.0), (1e6, 0.0)),
                                                  ((0.0, 800.0), (1.0, 0.0)),
                                                  ((0.0, 1.0), (0.0, 1e200))])
    def test_overflow_is_solve_error_without_pin_advice(self, tmp_path, capsys,
                                                        interval, coeffs):
        path = _write_single_piece(tmp_path, interval, coeffs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--input", path,
                         "--output", str(tmp_path / "o.csv")])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == EXIT_RANK
        assert "pin" not in capsys.readouterr().err

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["solve", "--input", str(path), "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT

    def test_missing_file(self, tmp_path):
        code = main(["solve", "--input", str(tmp_path / "absent.json"),
                     "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT


class TestCmdVerify:
    def test_verify_passes(self, tmp_path):
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        assert main(["verify", "--input", path]) == EXIT_OK

    def test_verify_reports_oracle_delta(self, tmp_path, capsys):
        path = _write_problem(tmp_path, get_example("3.1.2").bvp)
        assert main(["verify", "--input", path, "--step", "0.001"]) == EXIT_OK
        assert "oracle max delta" in capsys.readouterr().out

    def test_contradictory_conditions(self, tmp_path):
        entry = get_example("3.1.1")
        data = export_problem(entry.bvp)
        data["conditions"].append({"x": -1.0, "deriv": 0, "value": 1.0})
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--input", str(path)]) == EXIT_RANK

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_bad_step_is_input_error(self, tmp_path, step):
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        assert main(["verify", "--input", path, "--step", step]) == EXIT_INPUT

    def test_oracle_blow_up_is_verification_failure(self, tmp_path, capsys):
        # u'' = -1e4 u on [0, 100]: the exact cos/sin solution is bounded, but
        # RK4 with h*|lambda| = 100 is far outside its stability region.
        path = _write_single_piece(tmp_path, (0.0, 100.0), (-1e4, 0.0))
        assert main(["verify", "--input", path, "--step", "1"]) == EXIT_VERIFY
        assert "blew up" in capsys.readouterr().err

    def test_pinned_problem_verifies(self, tmp_path):
        path = _write_problem(tmp_path, get_example("3.1.6").bvp)
        assert main(["verify", "--input", path, "--step", "0.002"]) == EXIT_OK

    def test_non_finite_anchor_is_solve_error(self, tmp_path, monkeypatch, capsys):
        path = _write_problem(tmp_path, get_example("3.1.6").bvp)
        _overflow_closed_form(monkeypatch)
        assert main(["verify", "--input", path]) == EXIT_RANK
        err = capsys.readouterr().err
        assert "overflow" in err and "pin" not in err


class TestCmdReproduce:
    def test_reproduce_with_reference(self, capsys):
        assert main(["reproduce", "--example", "3.1.4", "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "published constants" in out
        assert "overall: PASS" in out

    def test_reproduce_flagged_skips_oracle(self, capsys):
        assert main(["reproduce", "--example", "3.1.5", "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle comparison skipped" in out

    def test_reproduce_unknown(self, capsys):
        assert main(["reproduce", "--example", "nope"]) == EXIT_INPUT

    @pytest.mark.parametrize("step", ["0", "-0.001", "nan", "inf"])
    def test_bad_step_is_input_error(self, capsys, step):
        code = main(["reproduce", "--example", "3.1.1", "--oracle", "--step", step])
        assert code == EXIT_INPUT
        assert "--step" in capsys.readouterr().err

    def test_oracle_blow_up_is_verification_failure(self, monkeypatch, capsys):
        def blow_up(*args, **kwargs):
            raise IntegrationError("integration blew up near x = 0.5")

        monkeypatch.setattr("obstacle_bvp.cli.shooting_solve", blow_up)
        assert main(["reproduce", "--example", "3.1.1", "--oracle"]) == EXIT_VERIFY
        assert "blew up" in capsys.readouterr().err

    def test_non_finite_anchor_is_solve_error(self, monkeypatch, capsys):
        _overflow_closed_form(monkeypatch)
        assert main(["reproduce", "--example", "3.1.6", "--oracle"]) == EXIT_RANK
        err = capsys.readouterr().err
        assert "overflow" in err and "pin" not in err

    def test_reproduce_all(self, capsys):
        assert main(["reproduce", "--example", "all"]) == EXIT_OK


class TestCmdList:
    def test_list_outputs_every_entry(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for ex_id in ("3.1.1", "3.1.8", "eq11"):
            assert ex_id in out


class TestMain:
    def test_consecutive_calls_get_independent_namespaces(self, monkeypatch, capsys):
        calls = []

        def record(example_id, with_oracle, step):
            calls.append((example_id, with_oracle, step))
            return EXIT_OK

        monkeypatch.setattr("obstacle_bvp.cli._reproduce_one", record)
        assert main(["reproduce", "--example", "3.1.1", "--oracle", "--step", "0.01"]) == EXIT_OK
        assert main(["list"]) == EXIT_OK
        assert main(["reproduce", "--example", "3.1.2"]) == EXIT_OK
        assert main(["reproduce", "--example", "3.1.3", "--oracle"]) == EXIT_OK
        assert calls == [("3.1.1", True, 0.01), ("3.1.2", False, DEFAULT_STEP),
                         ("3.1.3", True, DEFAULT_STEP)]


def _sixteen_region_obstacle():
    cuts = np.linspace(0.0, 2.0, 17).tolist()
    regions = tuple(((cuts[k], cuts[k + 1]), 1.0 if k % 3 else -0.5) for k in range(16))
    return reformulate(PenaltyProblem(Obstacle(regions), 0.7,
                                      (PointCondition(0.0, 0, 0.0),
                                       PointCondition(2.0, 0, 0.0))))


class TestSolutionTable:
    @pytest.mark.parametrize("make_bvp", [lambda: get_example("3.1.6").bvp,
                                          _sixteen_region_obstacle])
    def test_same_text_as_f_string_formatting(self, make_bvp):
        bvp = make_bvp()
        sol = solve_exact(bvp)
        xs = np.linspace(*bvp.domain, 2001)
        columns = [eval_solution(sol, bvp, xs, j) for j in range(bvp.order)]
        header = ["x", "piece", "u"] + [f"du{j}" for j in range(1, bvp.order)]
        lines = [",".join(header)]
        for x, k, *values in zip(xs, bvp.owning_piece(xs), *columns):
            lines.append(",".join([f"{x:.17g}", str(k)] + [f"{v:.17g}" for v in values]))
        assert _solution_table(sol, bvp, 2001) == "\n".join(lines) + "\n"
