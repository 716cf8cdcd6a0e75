import csv
import io
import json
import math

import pytest

from pslet2d.cli import (
    EXIT_CHECK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)


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


def test_solver_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "-V", "-rho")
    assert code == EXIT_SOLVER
    assert "no stable frame" in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_order_below_one_is_usage_error(capsys, order):
    for argv in (("compute", "-V", "-2/rho"), ("table", "hybrid-1s-gamma")):
        code, out, err = run_cli(capsys, *argv, "--order", order)
        assert code == EXIT_USAGE
        assert "usage error" in err and "--order" in err
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


def test_table_check_failure_exit_code(capsys, monkeypatch):
    # corrupt one published cell and confirm --check reports it with exit 5
    from pslet2d import tables

    original = tables.load_published_values

    def corrupted(name):
        cells = original(name)
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
