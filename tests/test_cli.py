import dataclasses
import errno
import json
import math
import os
import stat
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obstacle_bvp.cli import (EXIT_INPUT, EXIT_OK, EXIT_RANK, EXIT_VERIFY,
                              _table_text, export_problem, load_problem,
                              main, parse_problem)
from obstacle_bvp.basis import RootFindingError
from obstacle_bvp.exact import (MAX_SEGMENTS, InconsistentSystemError, PiecewiseSolution,
                                RankDeficientError,
                                eval_solution, solve_exact)
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.model import PointCondition, ProblemError, SolveError
from obstacle_bvp.oracle import DEFAULT_STEP, IntegrationError
from obstacle_bvp.penalty import Obstacle, PenaltyProblem, reformulate
from obstacle_bvp.verify import verification_report


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


def _overdetermined_by(miss):
    """u'' = 0 on [0, 1] with u(0) = u(1) = 1000 and u(0.5) = 1000 + miss."""
    return {"order": 2, "continuity": [0, 1],
            "pieces": [{"interval": [0.0, 1.0], "coeffs": [0.0, 0.0], "forcing": [0.0]}],
            "conditions": [{"x": 0.0, "deriv": 0, "value": 1000.0},
                           {"x": 1.0, "deriv": 0, "value": 1000.0},
                           {"x": 0.5, "deriv": 0, "value": 1000.0 + miss}]}


def _overflow_closed_form(monkeypatch):
    """Every evaluation of a solution is inf, as on a domain where it overflows."""
    monkeypatch.setattr(PiecewiseSolution, "evaluate", lambda self, x, owner, orders:
                        np.full((len(orders),) + np.shape(x), np.inf))


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

    def test_huge_sample_count_is_input_error(self, tmp_path, capsys):
        # 1e14 rows would need a 728 TiB grid: rejected before any allocation.
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        out = tmp_path / "table.csv"
        code = main(["solve", "--input", path, "--output", str(out),
                     "--samples", "100000000000000"])
        assert code == EXIT_INPUT
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_deficiency_gives_pin_advice(self, tmp_path, capsys):
        bvp = dataclasses.replace(get_example("3.1.6").bvp, pins=())
        path = _write_problem(tmp_path, bvp)
        code = main(["solve", "--input", path, "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_RANK
        err = capsys.readouterr().err
        assert "nullity 1" in err and "pin" in err

    def test_solution_family_names_its_free_column(self, tmp_path, capsys):
        # u'' = -u on (0, pi), u = 0 at both ends: the family c·sin x.
        path = _write_single_piece(tmp_path, (0.0, math.pi), (-1.0, 0.0), forcing=(0.0,))
        code = main(["solve", "--input", path, "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_RANK
        assert "(piece 0, basis 1)" in capsys.readouterr().err

    def test_no_solution_gives_no_pin_advice(self, tmp_path, capsys):
        # u'' = -u + 1 on (0, pi), u = 0 at both ends: u(0) + u(pi) = 2 for
        # every solution of the ODE, so no solution exists.
        path = _write_single_piece(tmp_path, (0.0, math.pi), (-1.0, 0.0))
        out = tmp_path / "o.csv"
        code = main(["solve", "--input", path, "--output", str(out)])
        assert code == EXIT_RANK
        err = capsys.readouterr().err
        assert "inconsistent" in err and "pin" not in err
        assert not out.exists()

    def test_answer_missing_its_own_condition_exits_2(self, tmp_path, capsys):
        # u'' = 0 on [0, 1] with u(0) = u(1) = 1000 and u(0.5) = 1000.0000005:
        # the residual 5e-7 passes the consistency gate, 1e-9 (1 + 1000), and
        # u(0.5) misses its value by that much (verify exits 3).
        path = tmp_path / "single.json"
        path.write_text(json.dumps(_overdetermined_by(5e-7)))
        out = tmp_path / "o.csv"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_RANK
        err = capsys.readouterr().err
        assert ("misses 1 of its 3 condition and continuity rows, worst u^(0)(0.5) = 1000 "
                "by 5.000e-07") in err
        assert "pin" not in err
        assert not out.exists()
        assert main(["verify", "--input", str(path)]) == EXIT_VERIFY

    def test_unpublishable_closed_form_exits_2_and_verify_solves(self, tmp_path, capsys):
        # u'' = 1e-300 u + x^6 on [0, 1], u(0) = 0, u(1) = 1: the particular's
        # coefficients overflow, so solve cannot print the constants and
        # writes nothing; verify never reads them and checks the answer.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(
            {"order": 2, "continuity": [0, 1],
             "pieces": [{"interval": [0.0, 1.0], "coeffs": [1e-300, 0.0],
                         "forcing": [0.0] * 6 + [1.0]}],
             "conditions": [{"x": 0.0, "deriv": 0, "value": 0.0},
                            {"x": 1.0, "deriv": 0, "value": 1.0}]}))
        out = tmp_path / "o.csv"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_RANK
        assert ("error: particular ansatz failed on (0.0, 1.0)"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == ["tiny.json"]  # no CSV, no temporary file
        assert main(["verify", "--input", str(path)]) == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out

    def test_overflowing_particular_is_named(self, tmp_path, capsys):
        # u'' = 1e-300 u + x^6 again: solve's message says what overflows.
        path = _write_single_piece(tmp_path, (0.0, 1.0), (1e-300, 0.0), (0.0,) * 6 + (1.0,))
        out = tmp_path / "o.csv"
        assert main(["solve", "--input", path, "--output", str(out)]) == EXIT_RANK
        assert ("error: particular ansatz failed on (0.0, 1.0): the ansatz's coefficients "
                "overflow\n" in capsys.readouterr().err)
        assert not out.exists()

    def test_missed_continuity_row_is_named(self, tmp_path, capsys, monkeypatch):
        # A NaN jump is the worst row, above a condition missed by 1e-3.
        import obstacle_bvp.cli as cli
        values = cli.matching_values

        def missed(sol, bvp):
            misses, jumps = values(sol, bvp)
            misses[1], jumps[-1, 1] = 1e-3, math.nan
            return misses, jumps

        monkeypatch.setattr(cli, "matching_values", missed)
        out = tmp_path / "o.csv"
        path = _write_problem(tmp_path, get_example("3.1.2").bvp)
        assert main(["solve", "--input", path, "--output", str(out)]) == EXIT_RANK
        assert ("misses 2 of its 6 condition and continuity rows, worst continuity order 1 "
                "at x = 0.75 by nan") in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_exactly_what_verify_fails_on_these_rows(self, tmp_path):
        # solve exits 2 exactly when verify's table has a failing condition or
        # enforced-jump row; the residual and oracle rows are verify's alone.
        bvps = [parse_problem({"order": 2, "continuity": [0, 1],
                               "pieces": [{"interval": [0.0, 3.0], "coeffs": [a0, 0.0],
                                           "forcing": [0.0, 0.0, 0.0, 1.0]}],
                               "conditions": [{"x": x, "deriv": 0, "value": 0.0}
                                              for x in (0.0, 3.0)]})
                for a0 in (1e-16, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2)]
        bvps += [get_example(ex_id).bvp for ex_id in EXAMPLE_IDS] + [_sixteen_region_obstacle()]
        bvps += [parse_problem(_overdetermined_by(miss)) for miss in (5e-7, 1e-10)]
        refused = []
        for i, bvp in enumerate(bvps):
            path = _write_problem(tmp_path, bvp, f"{i}.json")
            rows = verification_report(solve_exact(bvp), bvp).rows
            fails = any(status == "FAIL" and label.startswith(("condition", "jump"))
                        for label, _, _, status in rows)
            code = main(["solve", "--input", path, "--output", str(tmp_path / "o.csv")])
            assert code == (EXIT_RANK if fails else EXIT_OK), i
            refused.append(fails)
        assert 0 < sum(refused) < len(refused)

    def test_non_finite_coefficient_is_input_error(self, tmp_path, capsys):
        path = _write_single_piece(tmp_path, (0.0, 1.0), (math.nan, 0.0))
        code = main(["solve", "--input", path, "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("interval, coeffs", [
        ((0.0, 1e300), (0.0, 0.0)),  # the forced table's h^2 / 2 overflows
        ((0.0, 1.0), (1e200, 0.0)),  # 5e99 segments, above MAX_SEGMENTS
        ((0.0, 1.0), (0.0, 1e200)),  # the root finder diverges
    ])
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

    def test_segment_budget_is_solve_error(self, tmp_path, capsys):
        # u'' = 1e12 u on [0, 100]: rho*L = 2e8 needs 5e7 segments of rho*L <= 4,
        # refused before any table is built
        path = _write_single_piece(tmp_path, (0.0, 100.0), (1e12, 0.0), forcing=(0.0,))
        out = tmp_path / "o.csv"
        assert main(["solve", "--input", path, "--output", str(out)]) == EXIT_RANK
        err = capsys.readouterr().err
        assert ("piece 0 on (0.0, 100.0) needs 5e+07 segments of rho*L <= 4 (rho*L = 2e+08); "
                f"the problem needs 5e+07, more than MAX_SEGMENTS = {MAX_SEGMENTS}") in err
        assert not out.exists()

    def test_elimination_overflow_exits_2(self, tmp_path, capsys):
        # u'' = 0 with u(0) = 1.5e308 and u(1) = -1.5e308: every matrix entry
        # and rhs value is finite, but eliminating u(0)'s row from u(1)'s
        # takes -1.5e308 - 1.5e308 to -inf.  No constants are read from it.
        path = tmp_path / "growth.json"
        path.write_text(json.dumps({
            "order": 2, "continuity": [0, 1],
            "pieces": [{"interval": [0.0, 1.0], "coeffs": [0.0, 0.0], "forcing": [0.0]}],
            "conditions": [{"x": 0.0, "deriv": 0, "value": 1.5e308},
                           {"x": 1.0, "deriv": 0, "value": -1.5e308}]}))
        out = tmp_path / "o.csv"
        code = main(["solve", "--input", str(path), "--output", str(out)])
        assert code == EXIT_RANK
        assert "elimination overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["solve", "--input", str(path), "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT

    def test_missing_file(self, tmp_path):
        code = main(["solve", "--input", str(tmp_path / "absent.json"),
                     "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("output", ["", "absent/o.csv"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, monkeypatch, output):
        # Refused before the first line of the table is formatted.
        import obstacle_bvp.cli as cli
        taken, text = [], cli._table_text

        def counted(*args):
            for chunk in text(*args):
                taken.append(chunk)
                yield chunk

        monkeypatch.setattr(cli, "_table_text", counted)
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        code = main(["solve", "--input", path, "--output", str(tmp_path / output)])
        assert code == EXIT_INPUT and taken == []
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / output}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]
        assert not list(tmp_path.parent.glob(f"{tmp_path.name}.*.tmp"))  # beside a directory

    def test_disk_full_mid_table_keeps_the_previous_file(self, tmp_path, capsys, monkeypatch):
        # The disk fills after the header and the first 1,024 rows: the file
        # from the last run stays whole and no temporary file is left.
        import obstacle_bvp.cli as cli
        text = cli._table_text

        def full_disk(*args):
            chunks = text(*args)
            yield next(chunks)
            yield next(chunks)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_table_text", full_disk)
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        out = tmp_path / "o.csv"
        out.write_text("x,piece,u,du1\n0,0,1,2\n")
        code = main(["solve", "--input", path, "--output", str(out), "--samples", "5000"])
        assert code == EXIT_INPUT
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert out.read_text() == "x,piece,u,du1\n0,0,1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "problem.json"]

    def test_table_is_written_through_a_symbolic_link(self, tmp_path):
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        (tmp_path / "tables").mkdir()
        target = tmp_path / "tables" / "o.csv"
        target.write_text("previous\n")
        (tmp_path / "o.csv").symlink_to(target)
        assert main(["solve", "--input", path, "--output", str(tmp_path / "o.csv"),
                     "--samples", "21"]) == EXIT_OK
        assert (tmp_path / "o.csv").is_symlink()
        assert target.read_text().startswith("x,piece,u,du1\n")
        assert [p.name for p in (tmp_path / "tables").iterdir()] == ["o.csv"]

    def test_table_replaces_the_previous_file_with_a_plain_open_mode(self, tmp_path):
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        out = tmp_path / "o.csv"
        out.write_text("previous\n" * 10 ** 4)
        assert main(["solve", "--input", path, "--output", str(out), "--samples", "21"]) == EXIT_OK
        assert out.read_text() == _solution_table(solve_exact(get_example("3.1.1").bvp),
                                                  get_example("3.1.1").bvp, 21)
        plain = tmp_path / "plain"
        open(plain, "w").close()
        assert out.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "plain", "problem.json"]

    def test_table_is_written_into_a_fifo_in_place(self, tmp_path):
        # Only a regular file is replaced: a FIFO (as a device or a terminal)
        # is opened and written as it stands, and stays what it was.
        bvp = get_example("3.1.1").bvp
        path = _write_problem(tmp_path, bvp)
        fifo = tmp_path / "o.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["solve", "--input", path, "--output", str(fifo), "--samples", "5000"]) == EXIT_OK
        reader.join(10)
        assert got == [_solution_table(solve_exact(bvp), bvp, 5000)]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "problem.json"]

    def test_table_is_written_in_place_where_no_new_file_can_be_made(self, tmp_path,
                                                                      monkeypatch):
        # A writable file in a directory closed to new files (which root does
        # not meet) is truncated and written through its own inode.
        monkeypatch.setattr("obstacle_bvp.cli.open", _closed_directory, raising=False)
        bvp = get_example("3.1.1").bvp
        path = _write_problem(tmp_path, bvp)
        out = tmp_path / "o.csv"
        out.write_text("previous\n" * 10 ** 4)
        inode = out.stat().st_ino
        assert main(["solve", "--input", path, "--output", str(out), "--samples", "21"]) == EXIT_OK
        assert out.read_text() == _solution_table(solve_exact(bvp), bvp, 21)
        assert out.stat().st_ino == inode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "problem.json"]


def _closed_directory(name, mode="r", *args, **kwargs):
    """``open`` in a directory where no new file can be made."""
    if mode == "x":
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
    return open(name, mode, *args, **kwargs)


def _unit_problem(**piece):
    """u'' = 1 on [0, 1] with u = 0 at both ends, piece fields overridden."""
    return {"order": 2,
            "pieces": [{"interval": [0.0, 1.0], "coeffs": [0.0, 0.0],
                        "forcing": [1.0], **piece}],
            "conditions": [{"x": 0.0, "deriv": 0, "value": 0.0},
                           {"x": 1.0, "deriv": 0, "value": 0.0}],
            "continuity": [0, 1]}


def _run_both(tmp_path, data):
    """Exit codes of solve and verify on one problem-file dictionary."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    solve = main(["solve", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                  "--samples", "21"])
    return solve, main(["verify", "--input", str(path), "--step", "0.01"])


class TestUnreadableProblemFile:
    """A file that is not UTF-8, or that nests deeper than json's recursion
    limit, is an input error: one ``error:`` line, no exception out of main."""

    @pytest.mark.parametrize("content", [b"\xff\xfe{\x00}\x00", b"[" * 200_000],
                             ids=["utf16-bom", "nested-arrays"])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_is_input_error(self, tmp_path, capsys, command, content):
        path = tmp_path / "problem.json"
        path.write_bytes(content)
        extra = ["--output", str(tmp_path / "o.csv")] if command == "solve" else []
        assert main([command, "--input", str(path), *extra]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read problem file {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()


class TestMalformedProblem:
    @pytest.mark.parametrize("data", [
        _unit_problem(interval=[0.0]),
        _unit_problem(interval=[0.0, 1.0, 2.0]),
        _unit_problem(forcing=[]),
        _unit_problem(coeffs="12"),
        {**_unit_problem(), "pieces": {"a": 1}},
        {**_unit_problem(), "pieces": ["a"]},
    ], ids=["short-interval", "long-interval", "empty-forcing", "string-coeffs",
            "pieces-object", "pieces-of-strings"])
    def test_is_input_error(self, tmp_path, capsys, data):
        assert _run_both(tmp_path, data) == (EXIT_INPUT, EXIT_INPUT)
        assert not (tmp_path / "o.csv").exists()

    def test_well_formed_unit_problem_solves(self, tmp_path, capsys):
        assert _run_both(tmp_path, _unit_problem()) == (EXIT_OK, EXIT_OK)


def _overflowing_problem(tmp_path):
    """u'' = 0 on [0, 1] and u'' = 1.7e308 on [1, 2], u(0) = 0, u'(0) = 2e307:
    every condition and jump is met exactly, but u' = 2e307 + 1.7e308 (x - 1)
    overflows past x = 1.94 while u stays finite."""
    data = _unit_problem(forcing=[0.0])
    data["pieces"].append({"interval": [1.0, 2.0], "coeffs": [0.0, 0.0], "forcing": [1.7e308]})
    data["conditions"] = [{"x": 0.0, "deriv": 0, "value": 0.0},
                          {"x": 0.0, "deriv": 1, "value": 2e307}]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return path


class TestNonFiniteTable:
    def test_overflowing_derivative_is_solve_error(self, tmp_path, capsys):
        path = _overflowing_problem(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_RANK
        err = capsys.readouterr().err
        assert "non-finite (overflow)" in err and "u^(1)" in err
        assert not out.exists()
        # The overflow is found while the table is written: the file from the
        # last run stays as it was and the new, partial one is deleted.
        out.write_text("x,piece,u,du1\n0,0,1,2\n")
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_RANK
        assert "u^(1)" in capsys.readouterr().err
        assert out.read_text() == "x,piece,u,du1\n0,0,1,2\n"
        assert not list(tmp_path.glob("*.tmp"))
        # The oracle's trajectory overflows too: a verification failure.
        assert main(["verify", "--input", str(path)]) == EXIT_VERIFY
        assert "overflow" in capsys.readouterr().err

    def test_overflow_in_place_leaves_the_header(self, tmp_path, capsys, monkeypatch):
        # Written in place, the table keeps what came before the first
        # non-finite chunk: here the header alone.
        monkeypatch.setattr("obstacle_bvp.cli.open", _closed_directory, raising=False)
        path = _overflowing_problem(tmp_path)
        out = tmp_path / "o.csv"
        out.write_text("previous\n")
        assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_RANK
        assert "u^(1)" in capsys.readouterr().err
        assert out.read_text() == "x,piece,u,du1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "problem.json"]


# Ordinary and extreme finite numbers; the mutations add the rest.
_NUMBER = st.sampled_from([0, 1, -1, 0.25, -2.5, 4, 1e-12, 1e6, -1e4, 1e200, 1e308, -1e308])
_ANY = st.one_of(_NUMBER, st.lists(_NUMBER, max_size=3), st.sampled_from(
    [math.inf, -math.inf, math.nan, 10 ** 400, None, True, "1", "12", [], {}, ["a"],
     {"a": 1}, [[0, 1]], [{"a": 1}]]))


@st.composite
def _problem_files(draw):
    """A well-formed problem of order 2-4 on 1-3 pieces with values from a
    finite alphabet of ordinary and extreme numbers, then 0-2 fields deleted
    or replaced by anything JSON can hold."""
    n = draw(st.sampled_from([2, 3, 4]))
    cuts = draw(st.sampled_from([(0, 1), (0, 0.5, 1), (-1, -0.5, 0.5, 1), (0, 1, 30)]))
    pieces = [{"interval": [lo, hi], "sign": draw(st.sampled_from([1, -1])),
               "coeffs": draw(st.lists(_NUMBER, max_size=n)),
               "forcing": draw(st.lists(_NUMBER, min_size=1, max_size=3))}
              for lo, hi in zip(cuts, cuts[1:])]
    conditions = [{"x": x, "deriv": j, "value": draw(_NUMBER)}
                  for x, count in ((cuts[0], (n + 1) // 2), (cuts[-1], n // 2))
                  for j in range(count)]
    data = {"order": n, "pieces": pieces, "conditions": conditions,
            "continuity": list(range(n))}
    if draw(st.integers(0, 3)) == 0:
        data["pins"] = [{"piece": draw(st.integers(0, len(pieces))),
                         "basis": draw(st.integers(0, n)), "value": draw(_NUMBER)}]
    holders = [data, *pieces, *conditions, *data.get("pins", [])]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        holder = draw(st.sampled_from(holders))
        key = draw(st.sampled_from(sorted(holder)))
        if draw(st.integers(0, 3)) == 0:
            del holder[key]
            holders = [h for h in holders if h]
        else:
            holder[key] = draw(_ANY)
    return data


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_problem_files())
def test_fuzzed_problem_files_exit_cleanly(tmp_path, capsys, data):
    """solve and verify end in a documented exit code, never an exception
    (a RuntimeWarning is an error in this suite)."""
    solve, verify = _run_both(tmp_path, data)
    assert {solve, verify} <= {EXIT_OK, EXIT_INPUT, EXIT_RANK, EXIT_VERIFY}


class TestCmdVerify:
    def test_verify_passes(self, tmp_path):
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        assert main(["verify", "--input", path]) == EXIT_OK

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 17: the oracle's rounding grows with its step "
                              "count; at |u| ~ 3e8 its delta is 6.6e-6 (~2e-14 relative), "
                              "above the absolute 1e-6 oracle tolerance")
    def test_large_scale_solution_verifies(self, tmp_path, capsys):
        # u'' = u on [0, 1], u(0) = 1e8, u(1) = 3e8: solve exits 0 on it
        data = {**_unit_problem(coeffs=[1.0, 0.0], forcing=[0.0]),
                "conditions": [{"x": 0.0, "deriv": 0, "value": 1e8},
                               {"x": 1.0, "deriv": 0, "value": 3e8}]}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--input", str(path)]) == EXIT_OK

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

    def test_step_too_small_for_domain_is_input_error(self, tmp_path, capsys):
        path = _write_problem(tmp_path, get_example("3.1.1").bvp)
        assert main(["verify", "--input", path, "--step", "1e-14"]) == EXIT_INPUT
        assert "RK4 steps" in capsys.readouterr().err

    def test_oracle_blow_up_is_verification_failure(self, tmp_path, capsys):
        # u'' = -1e4 u on [0, 100]: the exact cos/sin solution is bounded, but
        # RK4 with h*|lambda| = 100 is far outside its stability region.
        path = _write_single_piece(tmp_path, (0.0, 100.0), (-1e4, 0.0))
        assert main(["verify", "--input", path, "--step", "1"]) == EXIT_VERIFY
        assert "blew up" in capsys.readouterr().err

    @pytest.mark.parametrize("intervals,coeffs", [
        # a piece about 1e-15 wide between two wide ones
        ([(0.0, 3.0), (3.0, 3.000000000000001), (3.000000000000001, 4.0)],
         [(0.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]),
        # one piece narrower than 1e-15 relative to its ends
        ([(1000.0, 1000.0000000000001)], [(0.0, 0.0)]),
    ])
    def test_very_narrow_piece_verifies(self, tmp_path, capsys, intervals, coeffs):
        # The oracle grid of a piece keeps node lo, however narrow the piece.
        data = {"order": 2,
                "pieces": [{"interval": list(i), "coeffs": list(c), "forcing": [1.0]}
                           for i, c in zip(intervals, coeffs)],
                "conditions": [{"x": intervals[0][0], "deriv": d, "value": 0.0}
                               for d in (0, 1)],
                "continuity": [0, 1]}
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--input", str(path)]) == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out

    def test_pinned_problem_verifies(self, tmp_path):
        path = _write_problem(tmp_path, get_example("3.1.6").bvp)
        assert main(["verify", "--input", path, "--step", "0.002"]) == EXIT_OK

    def test_two_pins_on_one_piece_verify(self, tmp_path, capsys):
        # u = u - 1 on the middle piece, u = 0 outside, u = u' = 0 at
        # both ends; u may jump at the breakpoints, and two pins on the last
        # piece fix the two jumps.  Each pin needs its own oracle anchor.
        data = {"order": 4,
                "pieces": [{"interval": [lo, hi], "coeffs": [a0, 0, 0, 0], "forcing": [q]}
                           for lo, hi, a0, q in ((0.0, 0.25, 0, 0), (0.25, 0.75, 1, -1),
                                                 (0.75, 1.0, 0, 0))],
                "conditions": [{"x": x, "deriv": d, "value": 0.0}
                               for x in (0.0, 1.0) for d in (0, 1)],
                "continuity": [1, 2, 3],
                "pins": [{"piece": 2, "basis": b, "value": 0.0} for b in (2, 3)]}
        path = tmp_path / "two-pins.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--input", str(path)]) == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out

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

    def test_step_too_small_for_domain_is_input_error(self, capsys):
        # 2e14 RK4 steps would need 364 TiB: rejected before integrating.
        code = main(["reproduce", "--example", "3.1.1", "--oracle", "--step", "1e-14"])
        assert code == EXIT_INPUT
        assert "RK4 steps" in capsys.readouterr().err

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
    @pytest.mark.parametrize("argv", [
        [],
        ["nope"],
        ["solve", "--input", "p.json"],
        ["solve", "--input", "p.json", "--output", "o.csv", "--samples", "abc"],
        ["reproduce", "--example", "3.1.1", "--step", "abc"],
        ["verify", "--input", "p.json", "--step", "abc"],
    ])
    def test_usage_error_is_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: obstacle-bvp") and "error: " in err

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


class TestFailureTable:
    """A listed failure raised from inside any command exits with its code."""

    @pytest.mark.parametrize("failure, code", [
        (ProblemError("bad input"), EXIT_INPUT),
        (RankDeficientError(3, 1, [(0, 1)]), EXIT_RANK),
        (InconsistentSystemError(2.0, 1), EXIT_RANK),
        (RootFindingError("unpaired complex root"), EXIT_RANK),
        (SolveError("overflow"), EXIT_RANK),
        (IntegrationError("integration blew up near x = 0.5"), EXIT_VERIFY),
    ])
    @pytest.mark.parametrize("argv, target", [
        (["verify", "--input", "{problem}"], "verification_report"),
        (["reproduce", "--example", "3.1.1", "--oracle"], "verification_report"),
        (["solve", "--input", "{problem}", "--output", "{csv}"], "validate_bvp"),
    ])
    def test_failure_maps_to_its_exit_code(self, tmp_path, monkeypatch, capsys,
                                           failure, code, argv, target):
        def fail(*args):
            raise failure

        monkeypatch.setattr(f"obstacle_bvp.cli.{target}", fail)
        paths = {"problem": _write_problem(tmp_path, get_example("3.1.1").bvp),
                 "csv": str(tmp_path / "out.csv")}
        assert main([a.format(**paths) for a in argv]) == code
        assert capsys.readouterr().err == f"error: {failure}\n"


def _sixteen_region_obstacle():
    cuts = np.linspace(0.0, 2.0, 17).tolist()
    regions = tuple(((cuts[k], cuts[k + 1]), 1.0 if k % 3 else -0.5) for k in range(16))
    return reformulate(PenaltyProblem(Obstacle(regions), 0.7,
                                      (PointCondition(0.0, 0, 0.0),
                                       PointCondition(2.0, 0, 0.0))))


def _sixteen_piece_cantilever():
    """The order-4, 16-piece cantilever of CI: clamped at 0, free at 2,
    alternate pieces on a foundation."""
    cuts = np.linspace(0.0, 2.0, 17).tolist()
    return parse_problem({
        "order": 4, "continuity": [0, 1, 2, 3],
        "pieces": [{"interval": [cuts[k], cuts[k + 1]],
                    "coeffs": [-4.0 if k % 2 else 0.0, 0.0, 0.0, 0.0], "forcing": [-1.0, 0.1 * k]}
                   for k in range(16)],
        "conditions": [{"x": 0.0, "deriv": 0, "value": 0.0}, {"x": 0.0, "deriv": 1, "value": 0.0},
                       {"x": 2.0, "deriv": 2, "value": 0.0}, {"x": 2.0, "deriv": 3, "value": 0.0}]})


def _solution_table(sol, bvp, samples):
    """The text ``solve`` writes, joined from its chunks."""
    return "".join(_table_text(sol, bvp, samples))


class TestSolutionTable:
    @pytest.mark.parametrize("make_bvp", [lambda: get_example("3.1.6").bvp,
                                          _sixteen_region_obstacle, _sixteen_piece_cantilever])
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

    def test_every_float_exactly_as_percent_17g(self):
        """The writer's numpy digits against ``'%.17g' % v`` on the edges of
        the fixed-notation range and on exact 18-digit ties, through tables of
        several chunks."""
        rng = np.random.default_rng(24)
        decades = (rng.uniform(1.0, 10.0, (25, 20)) * 10.0 ** np.arange(-6, 19)[:, None]).ravel()
        powers = 10.0 ** np.arange(-4, 18)
        edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        ties = []  # odd m * 2^-j in [10^(17 - j), 10^(18 - j)): 18 digits, the last a 5
        for j in range(2, 26):
            lo, hi = -(-10 ** 17 * 2 ** j // 10 ** j), min(10 ** 18 * 2 ** j // 10 ** j, 2 ** 53)
            ties += [math.ldexp(int(m) | 1, -j) for m in rng.integers(lo, hi, 20)]
        integers = [float(rng.integers(0, 2 ** k)) for k in range(1, 61)]
        integers += [float(10 ** k) for k in range(19)]
        family = np.concatenate([decades, edges, ties, integers, [0.0, 5e-324, 1e300]])
        family = np.concatenate([family, -family])
        pieces = 12
        xs = np.linspace(-3.0, 7.0, len(family))
        columns = np.array([family, family[::-1]])
        # The writer asks one chunk of the grid at a time: answer by grid index.
        bvp = SimpleNamespace(domain=(-3.0, 7.0), order=2, pieces=(None,) * pieces,
                              owning_piece=lambda x: np.searchsorted(xs, x) % pieces)
        sol = SimpleNamespace(evaluate=lambda x, owner, orders: columns[:, np.searchsorted(xs, x)])
        lines = ["x,piece,u,du1"] + ["%.17g,%d,%.17g,%.17g" % (x, i % pieces, u, du)
                                     for i, (x, u, du) in enumerate(zip(xs, family, family[::-1]))]
        assert _solution_table(sol, bvp, len(family)) == "\n".join(lines) + "\n"
        chunks = list(_table_text(sol, bvp, len(family)))
        assert [chunk.count("\n") for chunk in chunks] == [1, 1024, 1024, 208]

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # Each chunk is evaluated as it is written, so the peak does not grow
        # with the grid: 10^5 rows (0.8 MB of x alone) stay below 4 MiB.
        path = _write_problem(tmp_path, _sixteen_region_obstacle())
        argv = ["solve", "--input", path, "--output", str(tmp_path / "o.csv"),
                "--samples", "100000"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 4 * 2 ** 20
