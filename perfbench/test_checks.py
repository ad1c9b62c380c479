"""Tests of the benchmark's reference checks.

Each check must accept the program's real output and reject a corrupted
copy of it: a flipped verdict, a witness with one coefficient changed, a
Phi list with one element dropped, an orbit with a wrong length.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refcheck as rc  # noqa: E402
import workloads  # noqa: E402
from taniapn import cli  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# The reference arithmetic
# ---------------------------------------------------------------------------


def test_smallest_irreducibles():
    assert [rc.smallest_irreducible(m) for m in (1, 2, 3, 4, 8, 22)] == \
        [0x3, 0x7, 0xB, 0x13, 0x11B, 0x400003]


@pytest.mark.parametrize("m", [3, 4, 7, 8])
def test_field_arithmetic(m):
    F = rc.field(m)
    x = np.arange(F.order, dtype=np.int64)
    assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, F.order))
    assert all(F.pow(a, F.order) == a for a in range(F.order))
    assert list(F.vmul(x, 5 % F.order)) == [F.mul(a, 5 % F.order) for a in range(F.order)]
    for i in range(m):
        assert list(F.vfrob(x, i)) == [F.frob(a, i) for a in range(F.order)]
    low, length = F.orbit_min_len(x[1:])
    assert list(low) == [min(F.orbit(a)) for a in range(1, F.order)]
    assert list(length) == [len(F.orbit(a)) for a in range(1, F.order)]


@pytest.mark.parametrize("m", range(3, 11))
def test_phi_is_the_rootless_set(m):
    F = rc.field(m)
    for k in (1, m - 1):
        phi = rc.phi(m, k)
        assert phi.size == rc.phi_size(m)
        rootless = [b for b in range(1, F.order) if rc.trinomial_roots(m, k, 1, b) == 0]
        assert list(phi) == rootless


def test_gf2_rank():
    assert rc.gf2_rank([1 << j for j in range(8)]) == 8
    assert rc.gf2_rank([0b011, 0b110, 0b101]) == 2
    assert rc.gf2_rank([]) == 0


def test_class_count_matches_paper_table():
    assert {m: rc.class_count(m) for m in range(3, 17)} == \
        {m: n for m, n in rc.PAPER_N.items() if m <= 16}


# ---------------------------------------------------------------------------
# Checks accept real output and reject corrupted output
# ---------------------------------------------------------------------------


def _scan_pair(apn: bool):
    rng = random.Random(7)
    family = workloads._taniguchi_member(rng, 4, apn)
    return [workloads._scan_op(cmd, family, 8, apn) for cmd in ("check-apn", "spectrum")]


@pytest.mark.parametrize("apn", [True, False])
def test_scan_check_rejects_flipped_verdict(apn):
    check_op, spectrum_op = _scan_pair(apn)
    code, out = run_cli(check_op["argv"])
    assert rc.check_scan(check_op, code, out) == []
    data = json.loads(out)
    data["scan_apn"] = not apn
    assert rc.check_scan(check_op, code, json.dumps(data))
    assert rc.check_scan(check_op, 3 - code, out)
    assert rc.check_scan(dict(check_op, apn=not apn), code, out)

    code, out = run_cli(spectrum_op["argv"])
    assert rc.check_scan(spectrum_op, code, out) == []
    assert rc.check_scan(dict(spectrum_op, apn=not apn), code, out)
    data = json.loads(out)
    hist = data["histogram"]
    hist["0"], hist["2"] = hist["0"] + 1, hist["2"] - 1
    assert rc.check_scan(spectrum_op, code, json.dumps(data))


def _witness_output(m: int, seed: int):
    rng = random.Random(seed)
    k_star, gamma = workloads._random_class(rng, m)
    op = workloads._witness_op(m, workloads._class_member(rng, m, k_star, gamma),
                               workloads._class_member(rng, m, k_star, gamma))
    code, out = run_cli(op["argv"])
    return op, code, out


@pytest.mark.parametrize("block", ["l_a", "l_b", "n1", "n2", "n3", "n4", "m_a", "m_b"])
def test_witness_check_rejects_one_changed_coefficient(block):
    op, code, out = _witness_output(5, seed=3)
    assert op["equivalent"] and code == 0
    assert rc.check_witness(op, code, out) == []
    data = json.loads(out)
    coeffs = data["witness"][block]
    coeffs = coeffs["x"] if isinstance(coeffs, dict) else coeffs
    coeffs[0] = f"0x{int(coeffs[0], 16) ^ 1:X}"
    assert rc.check_witness(op, code, json.dumps(data))


def test_witness_check_on_inequivalent_pair():
    rng = random.Random(5)
    member = lambda: workloads._class_member(rng, 6, *workloads._random_class(rng, 6))  # noqa: E731
    while True:
        op = workloads._witness_op(6, member(), member())
        if not op["equivalent"]:
            break
    code, out = run_cli(op["argv"])
    assert rc.check_witness(op, code, out) == []
    assert rc.check_witness(op, 0, out)
    assert rc.check_witness(dict(op, equivalent=True), code, out)


def test_aut_check():
    op = {"m": 5, "beta": int(rc.phi(5, 1)[0])}
    want = 5 * 31 // len(rc.field(5).orbit(op["beta"]))
    assert rc.check_aut(op, 0, f"{want}\n") == []
    assert rc.check_aut(op, 0, f"{want + 1}\n")


def test_enumerate_json_check_rejects_dropped_element_and_wrong_length():
    op = {"m": 9, "k": 2, "format": "json"}
    code, out = run_cli(["--format", "json", "enumerate-beta", "--m", "9", "--k", "2"])
    assert rc.check_enumerate(op, code, out) == []
    dropped = json.loads(out)
    del dropped["phi"]["elements"][4]
    assert rc.check_enumerate(op, code, json.dumps(dropped))
    wrong = json.loads(out)
    orbit = wrong["orbits"]["orbits"][1]
    orbit["length"] = 3 if orbit["length"] != 3 else 9
    assert rc.check_enumerate(op, code, json.dumps(wrong))
    moved = json.loads(out)
    orbit = moved["orbits"]["orbits"][2]
    orbit["representative"] = f"0x{rc.field(9).mul(int(orbit['representative'], 16), 2):X}"
    assert rc.check_enumerate(op, code, json.dumps(moved))


def test_enumerate_csv_check_rejects_dropped_row_and_wrong_length():
    op = {"m": 8, "k": 3, "format": "csv"}
    code, out = run_cli(["--format", "csv", "enumerate-beta", "--m", "8", "--k", "3"])
    assert rc.check_enumerate(op, code, out) == []
    lines = out.splitlines()
    assert rc.check_enumerate(op, code, "\n".join(lines[:3] + lines[4:]))
    beta, rep, length = lines[5].split(",")
    lines[5] = f"{beta},{rep},{int(length) // 2}"
    assert rc.check_enumerate(op, code, "\n".join(lines))


def test_classes_check():
    op = {"m": 10}
    code, out = run_cli(["--format", "json", "classes", "--m", "10"])
    assert rc.check_classes(op, code, out) == []
    data = json.loads(out)
    del data["classes"][-1]
    data["count"] -= 1
    assert rc.check_classes(op, code, json.dumps(data))
    data = json.loads(out)
    data["classes"][-1]["members"] += 1
    assert rc.check_classes(op, code, json.dumps(data))


def test_audit_check():
    op = {"m_max": 8}
    code, out = run_cli(["--format", "json", "audit", "--m-max", "8"])
    assert rc.check_audit(op, code, out) == []
    data = json.loads(out)
    data["lines"][5] = data["lines"][5].replace("PASS", "FAIL")
    assert rc.check_audit(op, code, json.dumps(data))
    assert rc.check_audit(op, 1, out)


# ---------------------------------------------------------------------------
# Operation lists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_lists_are_seeded(workload):
    first = workloads.build(workload, 4)
    assert workloads.build(workload, 4) == first
    other = workloads.build(workload, 5)
    assert other != first

    def key(op):
        return repr([op.get(f) for f in ("check", "cmd", "m", "n", "apn", "equivalent")])

    assert sorted(map(key, other)) == sorted(map(key, first))
