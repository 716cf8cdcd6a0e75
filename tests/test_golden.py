"""Golden bits: the output of every engine stage for a fixed set of solves.

``tests/data/golden_energies.json`` holds, for every request ``_requests``
makes, ``float.hex`` of the frame (rho0, w, beta, lbar, V(rho0)), of every
lambda^(k), of E^(-2), E^(-1) and every E^(n), and of every partial sum EN_k,
with one sha256 over the ``float.hex`` of every W coefficient; or the type
and message of the error.  The engine claims that its bits do not depend on the host (no BLAS in
its products, one C ``pow`` per entry), so the comparison is exact.  To
rewrite the file after a change that is meant to move the numbers, run

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_energies.json
"""

import hashlib
import json
import pathlib

from pslet2d import engine, tables
from pslet2d.expressions import bind_params, parse_potential

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_energies.json"


def _record(result) -> dict:
    if isinstance(result, Exception):
        return {"error": [type(result).__name__, str(result)]}
    geom, table, energy = result
    w_hex = " ".join(c.hex() for w in table.W for c in w.tolist())
    return {
        "frame": [x.hex() for x in (geom.rho0, geom.w, geom.beta, geom.lbar, geom.v0)],
        "lambda": [x.hex() for x in table.lambdas],
        "E-2, E-1": [energy.e_minus2.hex(), energy.e_minus1.hex()],
        "E": [x.hex() for x in energy.corrections],
        "EN": [x.hex() for x in energy.partial_sums],
        "W sha256": hashlib.sha256(w_hex.encode()).hexdigest(),
    }


def _lone(text, params, m, max_order):
    try:
        return engine.solve(bind_params(parse_potential(text), params), m, max_order)
    except (engine.SolverError, ArithmeticError) as exc:
        return exc


def _requests():
    """(name, result) for every golden request, in a fixed order."""
    hybrid = parse_potential(tables.HYBRID_EXPRESSION)
    for preset in tables.PRESETS.values():
        rows = [bind_params(hybrid, {"m": float(preset.m), "g": preset.gamma(x)})
                for x in preset.rows]
        for order in (3, 15):
            for x, result in zip(preset.rows, engine.solve_batch(rows, preset.m, order)):
                yield f"{preset.name} x={x} K={order}", result
    for order in (6, 10, 15):
        for m in range(4):
            yield f"-2/rho m={m} K={order}", _lone("-2/rho", {}, m, order)
            for g in (0.5, 2.0):
                yield (f"g^2*rho^2/4 g={g} m={m} K={order}",
                       _lone("g^2*rho^2/4", {"g": g}, m, order))
    mixed = "a*rho + c/rho + 1/b"
    rows = [(1.0, -2.0, 1.0), (-1.0, 2.0, 1.0), (1.0, -2.0, 0.0), (2.0, -1.0, 3.0)]
    batch = engine.solve_batch(
        [bind_params(parse_potential(mixed), dict(zip("acb", r))) for r in rows], 1)
    for row, result in zip(rows, batch):
        yield f"{mixed} (a, c, b)={row} m=1 K=3", result
    for a in (1.0, 1.5, 2.0):
        yield f"rho^a - 2/rho a={a} m=0 K=3", _lone("rho^a - 2/rho", {"a": a}, 0, 3)
    yield "g^2*rho^2/4 g=2e-05 m=0 K=60", _lone("g^2*rho^2/4", {"g": 0.00002}, 0, 60)


def _golden() -> dict:
    return {name: _record(result) for name, result in _requests()}


def test_golden_bits():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _golden()
    assert list(got) == list(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    print(json.dumps(_golden(), indent=1))
