import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslet2d import cli, engine
from pslet2d.cli import (
    EXIT_CHECK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)
from pslet2d.engine import SolverError, solve
from pslet2d.expressions import MAX_DEPTH, PotentialEvalError, bind_params, parse_potential
from pslet2d.oracle import fd_ground_energy
from pslet2d.wavefunction import synthesize_wavefunction
from test_expressions import NESTED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json_hybrid(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute",
        "-V",
        "m*g - 2/rho + g^2*rho^2/4",
        "-p",
        "g=1",
        "-m",
        "0",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"geometry", "corrections", "partial_sums"}
    assert doc["partial_sums"]["EN3"] == pytest.approx(-3.910538, abs=1e-5)
    assert doc["geometry"]["l"] == 0
    assert doc["corrections"]["E(-1)"] == pytest.approx(0.0, abs=1e-10)


def test_compute_text_coulomb(capsys):
    code, out, _ = run_cli(capsys, "compute", "-V", "-2/rho", "-m", "3")
    assert code == 0
    assert "EN3" in out
    # EN3 = -(3.5)^-2
    line = [ln for ln in out.splitlines() if "EN3" in ln][0]
    assert float(line.split("=")[1]) == pytest.approx(-((3.5) ** -2), abs=1e-9)


def test_compute_m_binds_expression_parameter(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute",
        "-V",
        "m*g - 2/rho + g^2*rho^2/4",
        "-p",
        "g=1",
        "-m",
        "-1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["geometry"]["l"] == 1
    assert doc["partial_sums"]["EN3"] == pytest.approx(-0.409164, abs=1e-5)


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "-V", "2*")
    assert code == EXIT_PARSE
    assert "byte offset 2" in err


def test_constant_potential_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "-V", "5")
    assert code == EXIT_SOLVER
    assert "no stable frame" in err


def test_missing_parameter_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "-V", "a/rho")
    assert code == EXIT_PARSE
    assert "missing" in err


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (("-V", "g*rho-2/rho"), EXIT_PARSE, "parameter error: missing parameter(s): g"),
        (("-V", "-2/rho", "-p", "g=1"), EXIT_PARSE, "parameter error: extraneous parameter(s): g"),
        (("-V", "-2/rho", "-p", "=3"), EXIT_USAGE,
         "usage error: malformed -p/--param '=3', expected name=value"),
        (("-V", "-2/rho", "-p", " =3"), EXIT_USAGE,
         "usage error: malformed -p/--param ' =3', expected name=value"),
        (("-V", "g*rho^2 - 2/rho", "-p", "g=abc"), EXIT_USAGE,
         "usage error: non-numeric value in -p/--param 'g=abc'"),
    ],
)
def test_parameter_error_lines(capsys, argv, code, line):
    assert run_cli(capsys, "compute", *argv) == (code, "", line + "\n")


def test_solver_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "-V", "-rho")
    assert code == EXIT_SOLVER
    assert "no stable frame" in err


def test_a_root_across_a_kink_exit_code(capsys):
    # V' jumps from 1 to 3 at rho = 1, where F changes sign without a root
    code, out, err = run_cli(capsys, "compute", "-V", "2*rho + ((rho-1)^2)^0.5")
    assert (code, out) == (EXIT_SOLVER, "")
    assert "rho0 = 0.9999999999999998, leaves F(rho0) = -0.159" in err


def test_a_failing_preset_row_exit_code(capsys):
    # at order 19 one row's order-38 residual exceeds RESIDUAL_TOL; the
    # table prints nothing, not the rows before it
    code, out, err = run_cli(capsys, "table", "hybrid-1s-gamma", "--order", "19")
    assert (code, out) == (EXIT_SOLVER, "")
    assert err == "solver error: hierarchy inconsistency at order 38: residual 1.863e-09\n"


def test_v_series_overflow_exit_code(capsys):
    # rho0 ~ 316, and rho0^124 leaves the float range at order 60
    code, _, err = run_cli(
        capsys, "compute", "-V", "g^2*rho^2/4", "-p", "g=0.00002", "--order", "60"
    )
    assert code == EXIT_SOLVER
    assert "v-series overflow" in err


def test_an_infinite_partial_sum_exit_code(capsys):
    # V(rho0) / lbar^2 overflows, and EN0 = inf would print as Infinity, not JSON
    code, out, err = run_cli(capsys, "compute", "-V", "rho^2 - 2/rho + a", "-p", "a=1e308",
                             "--format", "json")
    assert (code, out) == (EXIT_SOLVER, "")
    assert err == "solver error: partial sum EN0 = inf is not finite\n"


def test_a_sweep_row_with_an_infinite_partial_sum_fails_alone(monkeypatch, capsys):
    results, batch = [], cli.solve_batch
    monkeypatch.setattr(cli, "solve_batch", lambda *a: results.extend(batch(*a)) or results)
    code, out, err = run_cli(capsys, "sweep", "-V", "rho^2 - 2/rho + a", "--sweep-param", "a",
                             "--range", "1e307,1e308,2")
    assert code == 0, err
    geom, _, breakdown = solve(bind_params(parse_potential("rho^2 - 2/rho + a"), {"a": 1e307}), 0)
    assert results[0][0] == geom and results[0][2] == breakdown  # the lone solve's bits
    _, *rows = csv.reader(io.StringIO(out))
    assert rows == [["1e+307", cli._fmt(geom.rho0), *map(cli._fmt, breakdown.partial_sums), ""],
                    ["1e+308", "", "", "", "", "", "partial sum EN0 = inf is not finite"]]


def test_main_reuses_one_parser(capsys):
    from pslet2d import cli

    parser = cli._PARSER
    first = run_cli(capsys, "compute", "-V", "a*rho^2 - 2/rho", "-p", "a=1", "--format", "csv")
    assert first[0] == 0
    # a value bound in one call does not carry over into the next
    code, _, err = run_cli(capsys, "compute", "-V", "a*rho^2 - 2/rho")
    assert code == EXIT_PARSE and "missing" in err
    assert run_cli(capsys, "table", "no-such-preset")[0] == EXIT_USAGE
    with pytest.raises(SystemExit):
        main(["compute"])  # argparse: -V is required
    capsys.readouterr()
    assert run_cli(capsys, "compute", "-V", "2/")[0] == EXIT_PARSE
    code, out, _ = run_cli(capsys, "table", "hybrid-3d-minus", "--order", "2")
    assert code == 0 and out.splitlines()[0] == "gamma_prime,EN0,EN1,EN2"
    assert run_cli(capsys, "compute", "-V", "a*rho^2 - 2/rho", "-p", "a=1",
                   "--format", "csv") == first
    assert cli._PARSER is parser


def test_negative_number_under_real_power_exit_code(capsys):
    code, out, err = run_cli(capsys, "compute", "-V", "(0-8)^0.5*rho - 2/rho", "-m", "0")
    assert code == EXIT_SOLVER
    assert "solver error" in err and "no stable frame" in err
    assert out == ""


@pytest.mark.parametrize(
    "text, offset",
    [
        ("²*rho-2/rho", 0),
        ("1²*rho-2/rho", 1),
        ("rho^(1e400^0)-2/rho", 5),
        ("1e400*rho-2/rho", 0),
    ],
)
def test_bad_number_literal_exit_code(capsys, text, offset):
    code, out, err = run_cli(capsys, "compute", "-V", text)
    assert code == EXIT_PARSE
    assert err.startswith("parse error") and f"byte offset {offset}" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("-V", "rho^(1e308*10-1e308*10)-2/rho"),  # NaN exponent
        ("-V", "rho^(1e308*10)-2/rho"),  # inf exponent
        # V''/2 is finite on the scan but 2 * V''/2 overflows, warning nothing
        ("-V", "(((a*2)^-1e308)-(-1e308/-rho))", "-p", "a=1.5", "-m", "-2"),
    ],
)
def test_non_finite_evaluation_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, "compute", *argv)
    assert code == EXIT_SOLVER
    assert "solver error" in err
    assert out == ""


# numpy refuses this count before it allocates anything
HUGE_COUNT = "100000000000000000000"


def test_unbuildable_point_count_is_usage_error(capsys):
    for argv in (
        ("wavefunction", "-V", "-2/rho", "--grid", f"0.01,20,{HUGE_COUNT}"),
        ("sweep", "-V", "-a/rho", "--sweep-param", "a", "--range", f"1,2,{HUGE_COUNT}"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert "usage error" in err and HUGE_COUNT in err
        assert out == ""


@pytest.mark.parametrize("order", ["0", "-1"])
def test_order_below_one_is_usage_error(capsys, order):
    for argv in (("compute", "-V", "-2/rho"), ("table", "hybrid-1s-gamma")):
        code, out, err = run_cli(capsys, *argv, "--order", order)
        assert code == EXIT_USAGE
        assert "usage error" in err and "--order" in err
        assert out == ""


def test_order_above_max_is_usage_error(capsys, monkeypatch):
    # refused before any solve starts: a solve would fail the test here
    monkeypatch.setattr(engine, "_solve_rows", None)
    for argv in (("compute", "-V", "-2/rho"), ("table", "hybrid-1s-gamma")):
        code, out, err = run_cli(capsys, *argv, "--order", str(engine.MAX_ORDER + 1))
        assert code == EXIT_USAGE
        assert "usage error" in err and f"--order must be <= {engine.MAX_ORDER}" in err
        assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_parameter_exit_code(capsys, value):
    code, _, err = run_cli(
        capsys, "compute", "-V", "m*g - 2/rho + g^2*rho^2/4", "-p", f"g={value}"
    )
    assert code == EXIT_PARSE
    assert "parameter error" in err and "non-finite" in err
    code, out, err = run_cli(
        capsys, "sweep", "-V", "g^2*rho^2/4", "--sweep-param", "g",
        "--range", f"{value},1,3",
    )
    assert code == EXIT_PARSE
    assert "parameter error" in err and "non-finite" in err
    assert out == ""


def test_table_check_below_order_three(capsys):
    code, out, err = run_cli(
        capsys, "table", "hybrid-2p-minus", "--order", "2", "--check"
    )
    assert code == 0, err
    assert list(csv.reader(io.StringIO(out)))[0][1:] == ["EN0", "EN1", "EN2"]
    assert "max abs deviation" in err


def test_table_check_passes(capsys):
    for preset in ("hybrid-1s-gamma", "hybrid-1s-gprime", "hybrid-2p-minus",
                   "hybrid-3d-minus"):
        code, out, err = run_cli(capsys, "table", preset, "--check")
        assert code == 0, (preset, err)
        assert "max abs deviation" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][1:] == ["EN0", "EN1", "EN2", "EN3"]


def test_table_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "hybrid-2p-minus")
    _, second, _ = run_cli(capsys, "table", "hybrid-2p-minus")
    assert first == second


def test_table_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "table", "nope")
    assert code == EXIT_USAGE
    assert "unknown preset" in err


@pytest.mark.parametrize("text", ["(" * 700 + "rho" + ")" * 700, "rho" + "^1" * 3000,
                                  "-" * 3000 + "rho", "+".join(["rho"] * 5000)])
def test_deep_nesting_exit_code(capsys, text):
    code, _, err = run_cli(capsys, "compute", "-V=" + text)
    assert code == EXIT_PARSE
    assert f"nested deeper than {MAX_DEPTH} levels (at byte offset" in err


@pytest.mark.parametrize("shape", NESTED)
def test_depth_limit_minus_one_solves(capsys, shape):
    code, out, _ = run_cli(capsys, "compute", "-V=" + NESTED[shape](MAX_DEPTH - 1))
    assert code == 0
    assert "EN3" in out


def test_table_check_failure_exit_code(capsys, monkeypatch):
    # corrupt one published cell and confirm --check reports it with exit 5
    from pslet2d import tables

    original = tables.load_published_values

    def corrupted(name):
        cells = list(original(name))
        bad = cells[3]
        cells[3] = tables.PublishedCell(
            x=bad.x, sums=(bad.sums[0] + 1.0,) + bad.sums[1:], erratum=bad.erratum
        )
        return cells

    monkeypatch.setattr("pslet2d.cli.tables.load_published_values", corrupted)
    code, _, err = run_cli(capsys, "table", "hybrid-3d-minus", "--check")
    assert code == EXIT_CHECK
    assert "check failure" in err


def test_sweep_hybrid_field(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "-V",
        "m*g - 2/rho + g^2*rho^2/4",
        "-m",
        "0",
        "--sweep-param",
        "g",
        "--range",
        "0,2,5",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert [r["g"] for r in rows] == ["0", "0.5", "1", "1.5", "2"]
    # g = 0 is the field-free limit; the solver degrades gracefully via the error column
    assert rows[0]["error"] != "" or float(rows[0]["EN3"]) == pytest.approx(-4.0, abs=1e-6)
    assert float(rows[2]["EN3"]) == pytest.approx(-3.910538, abs=1e-5)


def test_sweep_needs_two_steps(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "-V",
        "g^2*rho^2/4",
        "--sweep-param",
        "g",
        "--range",
        "1,2,1",
    )
    assert code == EXIT_USAGE
    assert "at least 2 steps" in err


def test_sweep_unknown_parameter(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "-V",
        "-2/rho",
        "--sweep-param",
        "g",
        "--range",
        "0,1,3",
    )
    assert code == EXIT_USAGE


def test_sweep_rejects_a_value_for_the_swept_parameter(capsys):
    argv = ("sweep", "-V", "g*rho-2/rho", "--sweep-param", "g", "--range", "1,2,2")
    assert run_cli(capsys, *argv, "-p", "g=5") == (
        EXIT_USAGE, "", "usage error: sweep parameter 'g' cannot also be bound by -p/--param\n")
    # m, which -m binds, can still be swept
    code, out, err = run_cli(capsys, "sweep", "-V", "m*g-2/rho+g^2*rho^2/4", "-p", "g=1",
                             "--sweep-param", "m", "--range", "-1,1,3")
    assert code == 0, err
    assert [line.split(",")[0] for line in out.splitlines()] == ["m", "-1", "0", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ("-V", "m*g-2/rho+g^2*rho^2/4", "--sweep-param", "m", "--range", "-1,1,3"),
        ("-V", "a*g-2/rho", "--sweep-param", "a", "--range", "1,2,2", "-p", "b=1"),
    ],
)
def test_sweep_binds_every_row_before_printing(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == EXIT_PARSE
    assert "parameter error" in err
    assert out == ""


def _lone_solve_sweep(text, name, lo, hi, steps, m=0, oracle=False):
    """The sweep's CSV built from one ``solve`` per value."""
    spec = parse_potential(text)
    header = [name, "rho0", "EN0", "EN1", "EN2", "EN3"] + ["fd", "fd_err"] * oracle + ["error"]
    lines = [",".join(header)]
    for value in np.linspace(lo, hi, steps):
        params = {name: float(value)}
        if "m" in spec.params:
            params.setdefault("m", float(m))
        bound = bind_params(spec, params)
        cells = []
        try:
            geom, _, breakdown = solve(bound, m, 3)
            cells = [f"{geom.rho0:.9f}"] + [f"{s:.9f}" for s in breakdown.partial_sums]
            if oracle:
                rho_max = max(20.0, 8.0 * geom.rho0)
                fd, fd_err = fd_ground_energy(bound, geom.l, rho_max, cli.ORACLE_CELLS,
                                              cli._oracle_shift(breakdown.partial_sums))
                cells += [f"{fd:.9f}", f"{fd_err:.1e}"]
            cells.append("")
        except (SolverError, PotentialEvalError) as exc:
            cells += [""] * (len(header) - 2 - len(cells)) + [str(exc).replace(",", ";")]
        lines.append(",".join([f"{value:.9g}"] + cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text, name, lo, hi, steps, m, oracle, batches",
    [
        ("m*g - 2/rho + g^2*rho^2/4", "g", 0.2, 3.0, 8, -1, True, 1),
        ("rho^a-2/rho", "a", 0.5, 2.5, 5, 0, False, 5),  # a sits in an exponent
        ("-a/rho", "a", -1.0, 1.0, 9, 0, False, 1),  # a <= 0 rows end in errors
        ("m*g - 2/rho + g^2*rho^2/4", "g", 1.0, 1.0, 2, 0, True, 1),  # rows share every value
        ("rho^a-2/rho", "a", 1.5, 1.5, 3, -1, False, 1),  # one exponent value, repeated
    ],
)
def test_batched_sweep_equals_lone_solves(monkeypatch, capsys, text, name, lo, hi,
                                          steps, m, oracle, batches):
    # a sweep makes one solve_batch call; the engine solves one batch per
    # distinct value of the parameters that sit in an exponent
    calls, batch = [], cli.solve_batch
    monkeypatch.setattr(cli, "solve_batch", lambda *a: calls.append(a) or batch(*a))
    groups, solve_rows = [], engine._solve_rows
    monkeypatch.setattr(engine, "_solve_rows", lambda *a: groups.append(a) or solve_rows(*a))
    argv = ["sweep", "-V", text, "-m", str(m), "--sweep-param", name,
            "--range", f"{lo},{hi},{steps}"] + ["--oracle"] * oracle
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert len(calls) == 1
    assert len(groups) == batches
    assert out == _lone_solve_sweep(text, name, lo, hi, steps, m, oracle)


def test_sweep_with_oracle_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "-V",
        "m*g - 2/rho + g^2*rho^2/4",
        "-m",
        "0",
        "--sweep-param",
        "g",
        "--range",
        "0.5,1.5,3",
        "--oracle",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for r in rows:
        assert abs(float(r["EN3"]) - float(r["fd"])) <= 5e-3
        assert 0.0 < float(r["fd_err"]) <= 1e-5


def test_sweep_oracle_failure_keeps_the_row_width(capsys):
    # the potential overflows on the FD mesh after the expansion has filled
    # the row, which keeps the solve and blanks only the oracle's cells
    code, out, err = run_cli(
        capsys,
        "sweep",
        "-V",
        "-a/rho + 1e-300*rho^400",
        "--sweep-param",
        "a",
        "--range",
        "1,2,2",
        "--oracle",
    )
    assert code == 0, err
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["a", "rho0", "EN0", "EN1", "EN2", "EN3", "fd", "fd_err", "error"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert [r[5] for r in rows] == ["-1.000000000", "-4.000000000"]
    for r in rows:
        assert len(r) == len(header)
        assert all(r[1:6]) and r[6:8] == ["", ""]
        assert "non-finite matrix entries" in r[-1]


def test_sweep_oracle_refuses_a_mesh_that_cannot_resolve_rho0(capsys):
    # rho0 = 1e-3 and 5.6e-4 fall inside the first oracle cell, of width 0.04,
    # where fd would come out near 2.6e4 against EN3 = 2.0e6 and 6.3e6; the
    # refusal blanks fd and fd_err and keeps the solve
    code, out, err = run_cli(capsys, "sweep", "-V", "g*rho^2 - 2/rho", "--sweep-param", "g",
                             "--range", "1e12,1e13,2", "--oracle")
    assert code == 0, err
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows] == ["1e+12", "1e+13"]
    assert [round(float(r[header.index("EN3")]), 1) for r in rows] == [1996551.7, 6318424.3]
    for r in rows:
        assert r[header.index("fd"):-1] == ["", ""]
        assert r[-1].startswith("FD mesh too coarse for the oracle: rho0 = ")
        assert r[-1].endswith(f"cells of the {cli.MIN_CELLS_PER_RHO0} needed")


def test_a_non_finite_fd_energy_fails_only_its_rows_oracle(capsys):
    # at a = 1e307 the FD matrix's entries are finite, but the eigensolve
    # gives NaN: the row keeps its EN, blanks fd and fd_err and says why;
    # at a = 1e308 EN0 itself overflows
    code, out, err = run_cli(capsys, "sweep", "-V", "rho^2 - 2/rho + a", "--sweep-param", "a",
                             "--range", "1e307,1e308,2", "--oracle")
    assert code == 0, err
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["a", "rho0", "EN0", "EN1", "EN2", "EN3", "fd", "fd_err", "error"]
    assert rows[0][:2] == ["1e+307", "0.258251005"]
    assert rows[0][2:6] == ["1.000000000e+307"] * 4
    assert rows[0][6:] == ["", "", "FD energy nan is not finite"]
    assert rows[1] == ["1e+308"] + [""] * 7 + ["partial sum EN0 = inf is not finite"]

def test_wavefunction_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "wavefunction",
        "-V",
        "-2/rho",
        "-m",
        "0",
        "--grid",
        "0.01,5,500",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 500
    assert list(rows[0]) == ["rho", "psi", "R"]
    sq_err = 0.0
    for r in rows:
        rho, psi, radial = float(r["rho"]), float(r["psi"]), float(r["R"])
        sq_err += (psi - 4.0 * math.sqrt(rho) * math.exp(-2.0 * rho)) ** 2
        assert radial == pytest.approx(psi / math.sqrt(rho), rel=1e-9)
    assert math.sqrt(sq_err / len(rows)) <= 1e-4


@pytest.mark.parametrize(
    "text, params, m, grid",
    [
        ("-2/rho", {}, 0, "0.01,5,500"),  # Coulomb
        ("g^2*rho^2/4", {"g": 1.5}, 1, "0.01,8,301"),  # oscillator
        ("m*g - 2/rho + g^2*rho^2/4", {"g": 1.0, "m": -1.0}, -1, "0.02,7,400"),  # hybrid
        ("-2/rho", {}, 0, "0.01,400,500"),  # psi underflows in the tail
    ],
)
def test_wavefunction_csv_matches_per_row_formatting(capsys, text, params, m, grid):
    flags = [f"-p{k}={v}" for k, v in params.items() if k != "m"]
    code, out, err = run_cli(capsys, "wavefunction", "-V", text, "-m", str(m), *flags,
                             "--grid", grid)
    assert code == 0, err
    geom, table, _ = solve(bind_params(parse_potential(text), params), m, 3)
    lo, hi, n = grid.split(",")
    wf = synthesize_wavefunction(geom, table, np.linspace(float(lo), float(hi), int(n)))
    expected = "rho,psi,R\n" + "".join(f"{rho:.9g},{psi:.10e},{radial:.10e}\n"
                                        for rho, psi, radial in zip(wf.grid, wf.psi, wf.radial))
    assert out == expected
    if float(hi) > 300:
        assert wf.psi[-1] < np.finfo(float).tiny  # subnormal or zero


def test_wavefunction_bad_grid(capsys):
    code, _, err = run_cli(
        capsys, "wavefunction", "-V", "-2/rho", "--grid", "5,1,100"
    )
    assert code == EXIT_USAGE
    code, _, err = run_cli(
        capsys, "wavefunction", "-V", "-2/rho", "--grid", "0.01,5"
    )
    assert code == EXIT_USAGE
    code, _, err = run_cli(
        capsys, "wavefunction", "-V", "-2/rho", "--grid", "0.01,inf,10"
    )
    assert code == EXIT_USAGE


def test_wavefunction_grid_missing_support(capsys):
    code, _, err = run_cli(
        capsys, "wavefunction", "-V", "-2/rho", "--grid", "0.01,0.4,50"
    )
    assert code == EXIT_SOLVER
    assert "support" in err


def test_wavefunction_overflow_is_a_solver_error_without_warnings(capsys):
    # pytest turns a RuntimeWarning into an error, so a leak would fail here
    code, out, err = run_cli(
        capsys, "wavefunction", "-V", "m*g - 2/rho + g^2*rho^2/4", "-p", "g=1",
        "--order", "6", "--grid", "0.01,12,400",
    )
    assert code == EXIT_SOLVER
    assert out == "" and err == "solver error: wavefunction series overflowed during normalization\n"


@pytest.mark.parametrize("grid, zeros", [
    ("0.01,1e300,5", (1, 2, 3, 4)),  # np.polyval overflows far out
    ("1e-320,20,5", (0,)),  # y = rho/rho0 - 1 rounds to -1: log1p(-1) = -inf
])
def test_wavefunction_grid_extremes_give_zeros_without_warnings(capsys, grid, zeros):
    # pytest turns a RuntimeWarning into an error, so a leak would fail here
    code, out, err = run_cli(capsys, "wavefunction", "-V", "-2/rho", "-m", "0", "--grid", grid)
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    psi = [float(r["psi"]) for r in rows]
    assert [p == 0.0 for p in psi] == [i in zeros for i in range(5)]
    assert min(psi) >= 0.0


def _fresh_interpreter(script, *flags):
    """Run ``script`` in a new interpreter, started with ``flags``, that imports
    pslet2d from this tree."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)


ORACLE_SWEEP = ["sweep", "-V", "m*g - 2/rho + g^2*rho^2/4", "--sweep-param", "g",
                "--range", "0.5,1.5,2", "--oracle"]
# defines sweep(), which runs ORACLE_SWEEP and returns its stdout
SWEEP_SCRIPT = ("import contextlib, io, sys\n"
                "from pslet2d.cli import main\n"
                "def sweep():\n"
                "    out = io.StringIO()\n"
                "    with contextlib.redirect_stdout(out):\n"
                f"        assert main({ORACLE_SWEEP!r}) == 0\n"
                "    return out.getvalue()\n")


def test_cold_start_imports_scipy_only_for_the_oracle(capsys):
    hybrid = "m*g - 2/rho + g^2*rho^2/4"
    requests = [
        ["compute", "-V", hybrid, "-p", "g=1"],
        ["table", "hybrid-1s-gamma", "--check"],
        ["wavefunction", "-V", "-2/rho", "--grid", "0.01,5,500"],
    ]
    script = ("import sys\n"
              "from pslet2d.cli import main\n"
              f"codes = [main(argv) for argv in {requests!r}]\n"
              "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    assert _fresh_interpreter(script).stdout.splitlines()[-1] == "[0, 0, 0] []"

    # the first FD call loads scipy's LAPACK extension without the scipy.linalg
    # package, warning-free; from cold it prints what it prints warm
    loaded = "[m in sys.modules for m in ('scipy.linalg._flapack', 'scipy.linalg')]"
    cold = _fresh_interpreter(SWEEP_SCRIPT + f"print(sweep(), end='')\nprint({loaded})\n",
                              "-W", "error")
    code, out, err = run_cli(capsys, *ORACLE_SWEEP)
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 and all(r["fd"] for r in rows)
    assert cold.stdout == out + "[True, False]\n"


def test_a_later_scipy_linalg_import_shares_the_oracles_lapack():
    script = SWEEP_SCRIPT + (
        "first = sweep()\n"
        "called = sys.modules['scipy.linalg._flapack']\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack.dgtsv is called.dgtsv, scipy.linalg.lapack._flapack is called,\n"
        "      sweep() == first)\n")
    assert _fresh_interpreter(script, "-W", "error").stdout == "True True True\n"


def test_the_oracle_falls_back_to_scipy_linalg_where_the_extension_is_not_found():
    report = "print(sweep(), end='')\nprint('scipy.linalg' in sys.modules)\n"
    # importlib.abc registers the finder class by name, so it is imported first
    nowhere = ("import importlib.abc, importlib.machinery\n"
               "class Nowhere(importlib.machinery.FileFinder):\n"
               "    def find_spec(self, fullname, target=None):\n"
               "        return None\n"
               "importlib.machinery.FileFinder = Nowhere\n")
    fast = _fresh_interpreter(SWEEP_SCRIPT + report, "-W", "error").stdout
    fallback = _fresh_interpreter(nowhere + SWEEP_SCRIPT + report, "-W", "error").stdout
    assert fast.endswith("False\n") and fallback.endswith("True\n")
    assert fallback[:-len("True\n")] == fast[:-len("False\n")]


def test_the_oracle_prints_no_nan_where_an_iterate_underflows(capsys):
    # ||T|| is about 1e195 at g = 1; started by bisection, the 1000-cell mesh's
    # iterate underflows, and its NaN once passed the certificate (dpttrf lets
    # a NaN diagonal through): test_oracle keeps that unshifted call
    with pytest.warns(UserWarning) as record:  # the engine's choice among stable frames
        code, out, _ = run_cli(capsys, "sweep", "-V", "g*rho^150 - 2/rho", "-m", "0",
                               "--sweep-param", "g", "--range", "1,2,2", "--oracle")
    assert {w.category for w in record} == {UserWarning}
    assert code == 0 and "nan" not in out
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        assert math.isfinite(float(row["fd"])) or row["error"]
    # started from EN3 = -4, fd at g = 1 is near the wall's ground state (FD
    # on (0, 1.1] gives -2.9638), though its bar stays inf (ROADMAP item 7)
    assert rows[0]["g"] == "1" and rows[0]["fd"] == "-2.963412311"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the oracle's rho_max = max(20, 8 rho0) ignores the "
                   "wall near rho = 1")
def test_the_sweep_oracle_resolves_a_steep_wall(capsys):
    # on (0, 20] T's norm is about 1e195: fd_err reads inf at g = 1 and 2 (fd
    # about -2.963 and -2.945), where rho_max = 1.1 gives bars of 5.5e-9 and 6.1e-9
    with pytest.warns(UserWarning, match="3 stable frames"):
        code, out, _ = run_cli(capsys, "sweep", "-V", "g*rho^150 - 2/rho", "-m", "0",
                               "--sweep-param", "g", "--range", "1,2,2", "--oracle")
    assert code == 0
    assert all(float(row["fd_err"]) < 1e-6 for row in csv.DictReader(io.StringIO(out)))


def test_values_print_in_fixed_point_below_1e15_and_in_exponent_form_above():
    below = math.nextafter(1e15, 0.0)
    for v in (0.0, -0.0, -4.0, 1.25e-12, below, -below, math.inf, -math.inf, math.nan):
        assert cli._fmt(v) == f"{v:.9f}"
    assert [cli._fmt(v) for v in (1e15, -1e15, 2.5e171)] == [
        "1.000000000e+15", "-1.000000000e+15", "2.500000000e+171"]


# ---------------------------------------------------------------------------
# property: every request ends in a documented exit code, never a traceback

_ATOMS = ("rho", "0", "2", "0.5", "1e308", "1e-300", "(0-8)", "a", "m", "²")


def _binary(children):
    return st.tuples(children, st.sampled_from("+-*/^"), children, st.booleans()).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})" if t[3] else f"{t[0]}{t[1]}{t[2]}"
    )


_EXPRESSIONS = st.recursive(
    st.sampled_from(_ATOMS),
    lambda children: st.one_of(_binary(children), children.map(lambda e: "-" + e)),
    max_leaves=8,
)


@st.composite
def _requests(draw):
    text = draw(_EXPRESSIONS)
    m = str(draw(st.integers(-2, 2)))
    a = draw(st.sampled_from(["1.5", "0", "-2", "1e-300"]))
    params = ["-p", f"a={a}"] if "a" in text else []
    command = draw(st.sampled_from(["compute", "sweep", "wavefunction"]))
    if command == "compute":
        return ["compute", "-V", text, "-m", m, *params]
    if command == "sweep":
        return ["sweep", "-V", text, "-m", m, "--sweep-param", "a",
                "--range", "1,2,2", "--oracle"]
    return ["wavefunction", "-V", text, "-m", m, *params, "--grid", "0.01,20,50"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_requests())
# EN0 overflows in both: compute exits 4, and the sweep row holds an error
@example(["compute", "-V", "1e308-2/rho+rho*rho", "-m", "0"])
@example(["sweep", "-V", "1e308*a-2/rho+rho*rho", "-m", "0", "--sweep-param", "a",
          "--range", "1,2,2", "--oracle"])
# EN is finite and the FD energy is NaN: the row's oracle cells stay blank
@example(["sweep", "-V", "1e307*a-2/rho+rho*rho", "-m", "0", "--sweep-param", "a",
          "--range", "1,2,2", "--oracle"])
def test_cli_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, EXIT_USAGE, EXIT_PARSE, EXIT_SOLVER), (argv, code)
    # every partial sum and every FD energy printed at exit 0 is a finite number
    if code == 0 and argv[0] == "compute":
        sums = [line.split("=")[1] for line in out.getvalue().splitlines()
                if line.lstrip().startswith("EN")]
    elif code == 0 and argv[0] == "sweep":
        sums = [v for row in csv.DictReader(io.StringIO(out.getvalue()))
                for k, v in row.items() if (k.startswith("EN") or k == "fd") and v]
    else:
        sums = []
    assert all(math.isfinite(float(v)) for v in sums), (argv, out.getvalue())


STAGES = ("solve_geometry", "build_v_series", "solve_hierarchy", "assemble_energy")
ROWS_ARG = (0, 0, 1, 0)  # the argument of each stage that holds one entry per row


@pytest.mark.parametrize("argv", [
    ("table", "hybrid-1s-gamma"),
    ("sweep", "-V", "m*g - 2/rho + g^2*rho^2/4", "-m", "0", "--sweep-param", "g",
     "--range", "0.5,2.5,5"),
    ("compute", "-V", "-2/rho", "-m", "1", "--order", "6"),
])
def test_every_request_runs_each_stage_once_per_batch(monkeypatch, capsys, argv):
    calls = []
    for name, k in zip(STAGES, ROWS_ARG):
        monkeypatch.setattr(engine, name, lambda *a, name=name, k=k, stage=getattr(engine, name):
                            calls.append((name, len(a[k]))) or stage(*a))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = {"table": 16, "sweep": 5, "compute": 1}[argv[0]]
    assert calls == [(name, rows) for name in STAGES]


def test_the_package_runs_the_engine_only_through_solve_and_solve_batch():
    import pslet2d

    for name in STAGES:
        assert hasattr(engine, name) and name not in engine.__all__
        assert name not in pslet2d.__all__ and not hasattr(pslet2d, name)
    assert {"solve", "solve_batch"} <= set(pslet2d.__all__)
