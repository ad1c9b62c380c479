"""CLI surface: commands, formats, exit codes, determinism."""

import functools
import json
import os
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taniapn.cli import (
    EXIT_AUDIT_FAIL,
    EXIT_BROKEN_PIPE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from taniapn.counting import capital_m

TABLE_2_TO_16 = [1, 1, 3, 6, 5, 21, 26, 57, 74, 315, 234, 1266, 1185, 2916, 5492]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_first_block(capsys):
    code, out, _ = run(capsys, "table", "--m", "2..16")
    assert code == EXIT_OK
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == TABLE_2_TO_16


def test_table_second_block_bounds(capsys):
    code, out, _ = run(capsys, "--format", "csv", "table", "--m", "17..20,25")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,bound"
    got = {int(r.split(",")[0]): tuple(map(int, r.split(",")[1:])) for r in lines[1:]}
    assert got[18] == (14595, 14565)
    assert got[20] == (69988, 69908)
    assert got[25] == (4473950, 4473930)


def test_table_single_m(capsys):
    code, out, _ = run(capsys, "--format", "json", "table", "--m", "3")
    assert code == EXIT_OK
    assert json.loads(out) == [{"m": 3, "n": 1, "bound": 1}]


def test_table_full_columns(capsys):
    code, out, _ = run(capsys, "--format", "csv", "table", "--m", "6", "--full")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,M,N,b,n,bound"
    assert lines[1] == "6,21,18,4,5,4"


def test_table_rejects_m1(capsys):
    code, _, err = run(capsys, "table", "--m", "1..4")
    assert code == EXIT_USAGE
    assert "m >= 2" in err


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
@pytest.mark.parametrize("spec", ["14286", "2..100000000", "3,14286..14280"])
def test_table_refuses_m_past_the_digit_limit(capsys, fmt, spec):
    # refused before any report is computed or any range expanded
    assert run(capsys, "--format", fmt, "table", "--m", spec) == (
        EXIT_USAGE, "", "error: table capped at m=14285\n")


def test_table_cap_is_the_int_to_str_limit(capsys):
    # M(m) is the largest value a table row prints
    assert len(str(capital_m(14285))) == 4300
    with pytest.raises(ValueError, match="4300 digits"):
        str(capital_m(14286))
    code, out, _ = run(capsys, "--format", "csv", "table", "--m", "14285", "--full")
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[1] == str(capital_m(14285))


@pytest.mark.parametrize("argv, err", [
    ("table --m x", "error: invalid literal for int() with base 10: 'x'\n"),
    ("table --m 1..4", "error: table needs m >= 2\n"),
    ("spectrum", "error: spectrum needs a family or --table PATH\n"),
    ("classes --m 2", "error: classes needs m >= 3 (m=2 has the single class)\n"),
    ("classes --m 6 --k 2", "error: k=2 not coprime to m=6\n"),
    ("witness --from 3,1,zz,1 --to 3,1,1,1", "error: expected a hex field element, got 'zz'\n"),
])
def test_usage_errors_exact_stderr(capsys, argv, err):
    # recorded before the commands left the printing of usage errors to main
    assert run(capsys, *argv.split()) == (EXIT_USAGE, "", err)


@pytest.mark.parametrize("argv, err", [
    ("check-apn gold --n 5 --i 1 --alpha 7 --beta 3 --m 9",
     "error: gold does not take --m --alpha --beta\n"),
    ("check-apn taniguchi --m 4 --k 1 --alpha 1 --beta 9 --s 3 --n 7 --i 2",
     "error: taniguchi does not take --s --n --i\n"),
    ("check-apn pott-zhou --m 4 --k 1 --s 2 --alpha 2 --beta 1",
     "error: pott-zhou does not take --beta\n"),
    ("spectrum gold --n 5 --i 1 --k 1", "error: gold does not take --k\n"),
    ("check-apn gold --n 5", "error: gold needs --n --i\n"),
    # refused before the file is read: the path does not exist
    ("spectrum --table missing.apnt taniguchi --m 3",
     "error: spectrum takes a family or --table PATH, not both\n"),
    ("spectrum --table missing.apnt --m 3", "error: --table does not take --m\n"),
])
def test_flags_a_family_does_not_take_exit_2(capsys, argv, err):
    assert run(capsys, *argv.split()) == (EXIT_USAGE, "", err)


def test_audit_cap_bytes(capsys, monkeypatch):
    # the cap is gf2m.MAX_DEGREE; help and usage error read it
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit):
        main(["audit", "--help"])
    assert "  --m-max M             audit m = 1..M (M <= 32)\n" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["audit", "--m-max", "33"])
    assert capsys.readouterr().err.endswith(
        "taniapn audit: error: argument --m-max: invalid choice: 33 (choose from "
        + ", ".join(map(str, range(1, 33))) + ")\n")


@pytest.mark.parametrize("argv, err", [
    ("check-apn taniguchi --m 3 --k 1 --alpha 0x --beta 1",
     "taniapn check-apn: error: argument --alpha: expected a hex field element, got '0x'\n"),
    ("aut --m 3 --k 1 --alpha 1 --beta g",
     "taniapn aut: error: argument --beta: expected a hex field element, got 'g'\n"),
])
def test_bad_hex_option_names_the_expected_form(capsys, argv, err):
    # argparse parses these options before main's handler, and exits 2 itself
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(err)


def test_audit_pass_lines(capsys):
    code, out, _ = run(capsys, "audit", "--m-max", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("PASS") for line in lines)


def test_audit_builds_phi_once_per_m_k(capsys, monkeypatch):
    import re
    import sys

    from taniapn import poly_roots
    orig, calls = poly_roots.phi_set, []

    def counted(k, ctx):
        calls.append((ctx.m, k))
        return orig(k, ctx)

    for name, module in list(sys.modules.items()):  # wherever taniapn binds it
        if name.startswith("taniapn") and getattr(module, "phi_set", None) is orig:
            monkeypatch.setattr(module, "phi_set", counted)
    code, out, _ = run(capsys, "audit", "--m-max", "10")
    assert code == EXIT_OK
    printed = [(int(m), int(k)) for m, ks in re.findall(r"m=(\d+) k=\[([\d,]+)\]", out)
               for k in ks.split(",")]
    assert len(printed) == 15 and calls == printed


@pytest.mark.parametrize("count, quantity", [("subfield_n", "N"), ("burnside_b", "b")])
@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_audit_reports_an_oracle_that_disagrees(capsys, monkeypatch, count, quantity, fmt):
    # the formula is the expected value; a subfield count one off must fail the audit
    from taniapn import counting
    orig = getattr(counting, count)
    monkeypatch.setattr(counting, count, lambda m, s: orig(m, s) + 1)
    code, out, _ = run(capsys, "--format", fmt, "audit", "--m-max", "4")
    assert code == EXIT_AUDIT_FAIL
    lines = json.loads(out)["lines"] if fmt == "json" else out.strip().splitlines()
    if fmt == "json":
        assert json.loads(out)["failures"] == [1, 2, 3, 4]
    for m, line in enumerate(lines, start=1):
        want = getattr(counting, {"N": "capital_n", "b": "b_orbits"}[quantity])(m)
        assert f" FAIL k=1 {quantity}: formula={want} oracle={want + 1}" in line
        assert "PASS" not in line


def test_audit_prints_a_burnside_sum_m_does_not_divide(capsys, monkeypatch):
    # one more rootless beta in GF(2) moves the Burnside sum by phi(m), which
    # m = 2, 3, 4 do not divide: b fails as the exact fraction, never floored
    from taniapn import counting
    orig = counting.subfield_counts
    monkeypatch.setattr(counting, "subfield_counts", lambda ks, ctx: {
        k: {d: c + (d == 1) for d, c in s.items()} for k, s in orig(ks, ctx).items()})
    code, out, _ = run(capsys, "audit", "--m-max", "4")
    assert code == EXIT_AUDIT_FAIL
    assert out.splitlines() == [
        "m=1 k=[1] M=1 N=1 b=1 PASS",
        "m=2 k=[1] FAIL k=1 N: formula=0 oracle=-1; k=1 b: formula=1 oracle=3/2",
        "m=3 k=[1] FAIL k=1 N: formula=3 oracle=2; k=1 b: formula=1 oracle=5/3",
        "m=4 k=[1] FAIL k=1 b: formula=2 oracle=5/2",
    ]


def test_audit_m_max_too_large():
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--m-max", "33"])
    assert exc.value.code == EXIT_USAGE


def test_audit_to_32_passes_with_m_above_24_from_the_formula(capsys):
    from taniapn.counting import b_orbits, capital_n
    code, out, _ = run(capsys, "audit", "--m-max", "32")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 32 and all(line.endswith(" PASS") for line in lines)
    for m, line in enumerate(lines, start=1):
        assert ("(formula, not enumerated)" in line) == (m > 24)
    assert lines[24] == (f"m=25 k=[1,12] M=11184811 (formula, not enumerated) "
                         f"N={capital_n(25)} b={b_orbits(25)} PASS")


def test_audit_twelve_all_pass(capsys):
    code, out, _ = run(capsys, "audit", "--m-max", "12")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.endswith("PASS") for line in lines)


def test_check_apn_taniguchi_agrees(capsys):
    code, out, _ = run(capsys, "check-apn", "taniguchi", "--m", "5", "--k", "1",
                       "--alpha", "1", "--beta", "0x6", "--exhaustive")
    assert code == EXIT_OK
    assert "criterion  APN" in out and "scan       APN" in out


def test_check_apn_cube_beta_alpha0(capsys):
    # beta = 1 is always a cube, so alpha = 0 cannot be APN
    code, out, _ = run(capsys, "check-apn", "taniguchi", "--m", "4", "--k", "1",
                       "--alpha", "0", "--beta", "1", "--exhaustive")
    assert code == EXIT_NEGATIVE
    assert "NOT APN" in out


def test_check_apn_gold(capsys):
    code, _, _ = run(capsys, "check-apn", "gold", "--n", "5", "--i", "1",
                     "--exhaustive")
    assert code == EXIT_OK
    code, _, err = run(capsys, "check-apn", "gold", "--n", "6", "--i", "2")
    assert code == EXIT_USAGE


def test_check_apn_pott_zhou(capsys):
    code, _, _ = run(capsys, "check-apn", "pott-zhou", "--m", "4", "--k", "1",
                     "--s", "2", "--alpha", "2", "--exhaustive")
    assert code == EXIT_OK
    code, _, _ = run(capsys, "check-apn", "pott-zhou", "--m", "4", "--k", "1",
                     "--s", "1", "--alpha", "2", "--exhaustive")
    assert code == EXIT_NEGATIVE


def test_check_apn_reports_a_disagreeing_scan(capsys, monkeypatch):
    from taniapn import diffanalysis
    monkeypatch.setattr(diffanalysis, "is_apn", lambda f: False)
    code, out, err = run(capsys, "check-apn", "taniguchi", "--m", "5", "--k", "1",
                         "--alpha", "1", "--beta", "0x6", "--exhaustive")
    assert (code, err) == (EXIT_AUDIT_FAIL, "error: criterion and exhaustive scan disagree\n")
    assert "criterion  APN" in out and "scan       NOT APN" in out


def test_check_apn_missing_args(capsys):
    code, _, err = run(capsys, "check-apn", "taniguchi", "--m", "5")
    assert code == EXIT_USAGE


def test_spectrum_json_and_table_round_trip(capsys, tmp_path):
    path = tmp_path / "pz.apnt"
    code, _, _ = run(capsys, "check-apn", "pott-zhou", "--m", "4", "--k", "1",
                     "--s", "2", "--alpha", "2", "--save-table", str(path))
    assert code == EXIT_OK
    code, out_direct, _ = run(capsys, "--format", "json", "spectrum",
                              "pott-zhou", "--m", "4", "--k", "1",
                              "--s", "2", "--alpha", "2")
    assert code == EXIT_OK
    code, out_table, _ = run(capsys, "--format", "json", "spectrum",
                             "--table", str(path))
    assert code == EXIT_OK
    assert json.loads(out_direct) == json.loads(out_table)
    assert json.loads(out_direct)["uniformity"] == 2


def test_enumerate_beta(capsys):
    code, out, _ = run(capsys, "--format", "json", "enumerate-beta",
                       "--m", "3", "--k", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["phi"]["elements"] == ["0x2", "0x4", "0x6"]
    assert data["orbits"]["orbits"] == [{"representative": "0x2", "length": 3}]


def test_classes_m4(capsys):
    code, out, _ = run(capsys, "--format", "json", "classes", "--m", "4",
                       "--k", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["count"] == 3
    assert [(c["alpha_star"], c["beta_star"]) for c in data["classes"]] == \
        [(0, None), (1, "0x1"), (1, "0x9")]


def test_classes_all_k_matches_n(capsys):
    for m in (5, 8):
        code, out, _ = run(capsys, "--format", "json", "classes", "--m", str(m))
        assert code == EXIT_OK
        data = json.loads(out)
        from taniapn.counting import n_taniguchi
        assert data["count"] == n_taniguchi(m)


def test_witness_verified(capsys):
    code, out, _ = run(capsys, "--format", "json", "witness",
                       "--from", "4,1,1,9", "--to", "4,1,1,D")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verified"] is True
    assert data["witness"]["n2"] == ["0x0", "0x0", "0x0", "0x0"]


def test_witness_verified_at_cap(capsys):
    # m = 16: 2m = 32 is the largest verifiable size; k -> m-k and alpha paths
    code, out, _ = run(capsys, "--format", "json", "witness",
                       "--from", "16,15,1,1003", "--to", "16,1,8E2D,8E2D")
    assert code == EXIT_OK
    assert json.loads(out)["verified"] is True


def test_witness_above_the_cap_names_the_cap(capsys):
    # m = 17: the maps are bijective, so the refusal is the 2m = 32 cap
    assert run(capsys, "witness", "--from", "17,1,1,1", "--to", "17,16,1,1") == \
        (EXIT_USAGE, "", "error: witness verification capped at 2m=32\n")


@pytest.mark.parametrize("src, dst, want", [
    # above the verification cap the verdict still comes from the canonical
    # triples, so an inequivalent pair prints it
    ("17,1,1,1", "17,1,1,7", (EXIT_NEGATIVE, "no witness: members are CCZ-inequivalent\n", "")),
    # above m = 28 too the members' APN check is the rank test: a member
    # that is not APN is refused by name, and an APN pair is decided by the
    # canonical triples (beta = 3 is a non-cube at m = 32)
    ("29,1,1,1", "29,1,1,2", (EXIT_USAGE, "", "error: f_(k=1, alpha=0x1, beta=0x2) is not APN\n")),
    ("29,1,1,1", "29,1,1,3", (EXIT_NEGATIVE, "no witness: members are CCZ-inequivalent\n", "")),
    ("32,1,1,1", "32,1,0,3", (EXIT_NEGATIVE, "no witness: members are CCZ-inequivalent\n", "")),
])
def test_witness_above_the_cap_without_a_witness(capsys, src, dst, want):
    assert run(capsys, "witness", "--from", src, "--to", dst) == want


def test_witness_at_m8_builds_no_log_table(capsys, monkeypatch):
    # up to m = 8 products and powers gather from the product table, so a
    # witness and the automorphism count run without the log/antilog pair
    from taniapn.equivalence import count_monomial_el_automorphisms
    from taniapn.families import TaniguchiParams
    from taniapn.gf2m import FieldCtx, default_ctx
    from taniapn.poly_roots import phi_set

    def refuse(_):
        raise AssertionError("the log table was used")

    monkeypatch.setattr(FieldCtx, "_logexp", property(refuse))
    ctx = default_ctx(8)
    gamma = max(phi_set(1, ctx))
    # (7, 3, gamma^2 * 3^3) is in the class of (1, 1, gamma): k -> m - k,
    # a Frobenius twist and alpha = 3, with beta = gamma' * alpha^(2^(m-k)+1)
    beta = ctx.mul(ctx.pow2k(gamma, 1), ctx.pow(3, 3))
    code, out, _ = run(capsys, "--format", "json", "witness",
                       "--from", f"8,1,1,{gamma:X}", "--to", f"8,7,3,{beta:X}")
    assert code == EXIT_OK and json.loads(out)["verified"] is True
    p = TaniguchiParams(m=8, k=1, alpha=1, beta=gamma)
    assert count_monomial_el_automorphisms(p) > 0


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_witness_reports_a_wrong_witness_unverified(capsys, monkeypatch, fmt):
    from taniapn import equivalence
    wrong = equivalence.identity_witness(4)  # 4,1,1,9 and 4,1,1,D are distinct members
    monkeypatch.setattr(equivalence, "equivalence_witness", lambda p1, p2: wrong)
    code, out, _ = run(capsys, "--format", fmt, "witness",
                       "--from", "4,1,1,9", "--to", "4,1,1,D")
    assert code == EXIT_AUDIT_FAIL
    assert ('"verified": false' if fmt == "json" else "verified: False") in out


def test_witness_negative(capsys):
    code, out, _ = run(capsys, "witness", "--from", "4,1,1,1", "--to", "4,1,1,9")
    assert code == EXIT_NEGATIVE


@pytest.mark.parametrize("to", ["4,3,0,2", "4,1,0,7"])
def test_witness_alpha0_equivalent_without_witness(capsys, to):
    # equivalent alpha = 0 members with no constructive path: a positive verdict
    from taniapn.equivalence import are_ccz_equivalent
    from taniapn.families import TaniguchiParams
    m, k, alpha, beta = (int(v, 16) for v in to.split(","))
    assert are_ccz_equivalent(TaniguchiParams(m=4, k=1, alpha=0, beta=2),
                              TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta))
    code, out, _ = run(capsys, "--format", "json", "witness",
                       "--from", "4,1,0,2", "--to", to)
    assert code == EXIT_OK
    assert json.loads(out) == {"equivalent": True, "witness": None}
    code, out, _ = run(capsys, "witness", "--from", "4,1,0,2", "--to", to)
    assert code == EXIT_OK
    assert out == "equivalent; no constructive witness available\n"


@functools.cache
def _apn_members(m):
    """Every APN Taniguchi member (alpha = 0 included) of degree m."""
    from taniapn.families import TaniguchiParams
    from taniapn.gf2m import coprime_residues, default_ctx
    from taniapn.poly_roots import count_roots
    ctx = default_ctx(m)
    return [TaniguchiParams(m=m, k=k, alpha=alpha, beta=beta)
            for k in coprime_residues(m) for alpha in range(ctx.order)
            for beta in range(1, ctx.order) if count_roots(k, alpha, beta, ctx) == 0]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.sampled_from([4, 5, 6]), data=st.data())
def test_witness_verdict_matches_equivalence(capsys, m, data):
    """`witness` exits 0 exactly for CCZ-equivalent pairs, and every witness verifies."""
    from taniapn.equivalence import are_ccz_equivalent
    members = _apn_members(m)
    alpha0 = [p for p in members if p.alpha == 0]  # none for odd m
    member = st.sampled_from(alpha0) | st.sampled_from(members) if alpha0 else \
        st.sampled_from(members)
    p1, p2 = data.draw(member), data.draw(member)
    src, dst = (f"{p.m},{p.k},{p.alpha:X},{p.beta:X}" for p in (p1, p2))
    code, out, _ = run(capsys, "--format", "json", "witness", "--from", src, "--to", dst)
    result = json.loads(out)
    assert (code == EXIT_OK) == are_ccz_equivalent(p1, p2)
    if result["witness"] is None:
        assert result == {"witness": None, "equivalent": code == EXIT_OK}
    else:
        assert result["verified"] is True and code == EXIT_OK


def test_witness_degree_mismatch(capsys):
    code, _, err = run(capsys, "witness", "--from", "4,1,1,9", "--to", "5,1,1,6")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("src, dst", [("5,4,13,1F", "5,4,9,C"), ("4,1,0,2", "4,3,0,2")])
def test_witness_scans_each_member_once(capsys, monkeypatch, src, dst):
    # the canonical-witness path and the no-witness path both pass each
    # member through the APN check more than once; the member keeps its
    # verdict, decided by one rank test of its normalized beta (alpha != 0)
    # or one cube test of its beta (alpha = 0)
    import sys

    from taniapn import poly_roots
    from taniapn.gf2m import FieldCtx, default_ctx
    orig, is_cube, calls = poly_roots.is_rootless, FieldCtx.is_cube, []

    def counted(k, beta, ctx):
        calls.append(("rank", k, beta))
        return orig(k, beta, ctx)

    for name, module in list(sys.modules.items()):  # wherever taniapn binds it
        if name.startswith("taniapn") and getattr(module, "is_rootless", None) is orig:
            monkeypatch.setattr(module, "is_rootless", counted)
    monkeypatch.setattr(FieldCtx, "is_cube",
                        lambda ctx, a: calls.append(("cube", a)) or is_cube(ctx, a))
    code, _, _ = run(capsys, "--format", "json", "witness", "--from", src, "--to", dst)
    assert code == EXIT_OK
    want = []
    for m, k, alpha, beta in (spec.split(",") for spec in (src, dst)):
        m, k, alpha, beta = int(m), int(k), int(alpha, 16), int(beta, 16)
        want.append(("cube", beta) if alpha == 0 else
                    ("rank", k, poly_roots.transform_beta(k, alpha, beta, default_ctx(m))))
    assert sorted(calls) == sorted(want)


def test_witness_walks_each_member_once(capsys, monkeypatch):
    # the decision, the chain and the canonical target read one walk per
    # member: one Frobenius orbit each, no orbit_min or orbit_length, and
    # transform_beta once for 10,3,.. and twice for 10,7,.. (its alpha,
    # then the swap's)
    import sys

    from taniapn import poly_roots
    argv = ["--format", "json", "witness", "--from", "10,3,0x5,0xAD", "--to", "10,7,0x1F3,0x308"]
    assert run(capsys, *argv)[0] == EXIT_OK  # warm: fields and tables built
    calls = Counter()
    for fn in (poly_roots.frobenius_orbit, poly_roots.transform_beta,
               poly_roots.orbit_min, poly_roots.orbit_length):
        def counted(*a, fn=fn):
            calls[fn.__name__] += 1
            return fn(*a)
        for name, module in list(sys.modules.items()):  # wherever taniapn binds it
            if name.startswith("taniapn") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    assert run(capsys, *argv)[0] == EXIT_OK
    assert calls == {"frobenius_orbit": 2, "transform_beta": 3}


@pytest.mark.parametrize("m", [29, 32])
def test_member_commands_above_the_scan_degree(capsys, monkeypatch, forbid_generator_walk, m):
    # check-apn and aut decide a member by the rank test alone: no root scan,
    # no log table and no bulk product at m = 29..32.  X^3 + X + 1 is
    # irreducible over GF(2), so it has no root when 3 does not divide m;
    # x = 2 is a root of X^3 + X + 0xA; (m-1, 3, 3^3 = 0xF) normalizes to
    # beta' = 1 and walks to the class of (1, 1, 1), whose beta* = 1 has
    # an orbit of length 1, so |Aut_EL| = m(2^m - 1)
    import sys

    from taniapn import poly_roots

    def refuse(*_):
        raise AssertionError("the root scan was used")

    for name, module in list(sys.modules.items()):  # wherever taniapn binds it
        if name.startswith("taniapn") and getattr(module, "count_roots", None) is not None:
            monkeypatch.setattr(module, "count_roots", refuse)
    forbid_generator_walk()
    el = m * ((1 << m) - 1)
    aut = f"aut_el {el}\naut_ea {el << 2 * m}\naut    {el << 2 * m}\n"
    for (k, alpha, beta), verdict, code in [((1, 1, 1), "APN", EXIT_OK),
                                            ((1, 1, 0xA), "NOT APN", EXIT_NEGATIVE),
                                            ((m - 1, 3, 0xF), "APN", EXIT_OK)]:
        flags = ("--m", str(m), "--k", str(k), "--alpha", f"{alpha:X}", "--beta", f"{beta:X}")
        assert run(capsys, "check-apn", "taniguchi", *flags) == (code, (
            "family     taniguchi\n"
            f"params     m={m} k={k} alpha=0x{alpha:X} beta=0x{beta:X}\n"
            f"criterion  {verdict}\n"), "")
        assert run(capsys, "aut", *flags) == ((EXIT_OK, aut, "") if code == EXIT_OK else (
            EXIT_USAGE, "", f"error: f_(k={k}, alpha=0x{alpha:X}, beta=0x{beta:X}) is not APN\n"))
    assert poly_roots.count_roots is refuse


def test_save_table_rejects_gold(capsys, tmp_path):
    code, _, err = run(capsys, "check-apn", "gold", "--n", "5", "--i", "1",
                       "--save-table", str(tmp_path / "g.apnt"))
    assert code == EXIT_USAGE
    assert "bivariate" in err


def test_save_table_unwritable_path_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "check-apn", "taniguchi", "--m", "3", "--k", "1",
                         "--alpha", "1", "--beta", "1",
                         "--save-table", str(tmp_path / "no-such-dir" / "x.bin"))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ")


def _saved_table(capsys, tmp_path):
    path = tmp_path / "f.apnt"
    code, _, _ = run(capsys, "check-apn", "taniguchi", "--m", "3", "--k", "1",
                     "--alpha", "1", "--beta", "2", "--save-table", str(path))
    assert code == EXIT_OK
    return path, path.with_name(path.name + ".json")


@pytest.mark.parametrize("damage", ["short-header", "manifest-without-modulus",
                                    "manifest-is-a-list", "missing-path"])
def test_malformed_table_input_is_usage_error(capsys, tmp_path, damage):
    path, manifest = _saved_table(capsys, tmp_path)
    if damage == "short-header":
        path.write_bytes(path.read_bytes()[:6])
    elif damage == "manifest-without-modulus":
        data = json.loads(manifest.read_text())
        del data["modulus"]
        manifest.write_text(json.dumps(data))
    elif damage == "manifest-is-a-list":
        manifest.write_text("[1, 2]")
    else:
        path = tmp_path / "absent.apnt"
    code, out, err = run(capsys, "spectrum", "--table", str(path))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ")


def test_table_header_past_the_size_guard_is_refused_before_its_payload(capsys, tmp_path):
    # an m = 15 header stands for 2^30 entries, 8 GiB of payload: the header
    # alone is refused, by the truth-table guard and not the file's size
    path = tmp_path / "big.apnt"
    path.write_bytes(b"APNT" + bytes([1, 15, 0, 0]))
    code, out, err = run(capsys, "spectrum", "--table", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {path}: truth table of 2^30 entries exceeds the 2^28 guard\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(["table", "manifest"]),
       cut=st.none() | st.integers(0, 600),
       flips=st.lists(st.tuples(st.integers(0, 600), st.integers(1, 255)), max_size=3))
def test_damaged_table_files_never_crash(capsys, tmp_path, target, cut, flips):
    path, manifest = _saved_table(capsys, tmp_path)
    victim = path if target == "table" else manifest
    raw = bytearray(victim.read_bytes())
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    victim.write_bytes(bytes(raw[:cut]))
    code, _, err = run(capsys, "spectrum", "--table", str(path))
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert err.startswith("error: ")


def test_parser_cached_and_stateless_across_calls(capsys):
    """Back-to-back main calls on the shared parser print what fresh parsers print."""
    argv = ["enumerate-beta", "--m", "6", "--k", "1"]
    calls = [["--modulus", "6=0x49", "--format", "json"] + argv,
             ["--format", "csv"] + argv,
             argv,
             ["--format", "json"] + argv,
             ["--modulus", "6=0x49"] + argv]
    fresh = []
    for call in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *call))
    assert build_parser() is build_parser()
    assert [run(capsys, *call) for call in calls] == fresh
    assert fresh[0][1] != fresh[3][1] and fresh[2][1] != fresh[4][1]
    assert build_parser().parse_args(argv).modulus == []
    assert build_parser().parse_args(argv).format == "pretty"


def test_aut_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "aut", "--m", "4",
                       "--k", "1", "--alpha", "0", "--beta", "2")
    assert code == EXIT_OK
    assert json.loads(out) == {"aut_el": 180, "aut_ea": 46080, "aut": 46080}
    code, out, _ = run(capsys, "--format", "json", "aut", "--m", "2",
                       "--k", "1", "--alpha", "1", "--beta", "1")
    data = json.loads(out)
    assert data["aut"] == 5760 and "note" in data


def test_modulus_override(capsys):
    code, out, err = run(capsys, "--modulus", "3=0xD", "enumerate-beta",
                         "--m", "3", "--k", "1")
    assert code == EXIT_OK
    assert "warning" in err
    assert "0x3" in out            # Phi under X^3+X^2+1 starts at 0x3
    code, _, err = run(capsys, "--modulus", "3=0xF", "enumerate-beta",
                       "--m", "3", "--k", "1")
    assert code == EXIT_USAGE
    assert "reducible" in err


@pytest.mark.parametrize("override, argv", [
    ("5=0x2F", "table --m 5"),
    ("7=0x83", "check-apn taniguchi --m 5 --k 1 --alpha 1 --beta 6"),
    ("5=0x2F", "spectrum --table {table}"),
])
def test_unused_modulus_override_warns_once(capsys, tmp_path, override, argv):
    # the command builds no field of the override's degree: stdout and exit
    # are those of the run without it, and stderr names the unused override
    argv = argv.format(table=_saved_table(capsys, tmp_path)[0]).split()
    plain = run(capsys, *argv)
    m, modulus = override.split("=")
    assert run(capsys, "--modulus", override, *argv) == (
        plain[0], plain[1],
        f"warning: --modulus {m}={modulus} was not used; "
        f"the command built no field of degree {m}\n")


def test_used_modulus_override_has_no_unused_warning(capsys):
    code, _, err = run(capsys, "--modulus", "3=0xD", "--modulus", "4=0x19",
                       "audit", "--m-max", "3")
    assert code == EXIT_OK
    assert err.splitlines() == [
        "warning: non-default modulus 0xD for m=3; element values are comparable "
        "only across runs with the same modulus",
        "warning: --modulus 4=0x19 was not used; the command built no field of degree 4",
    ]


def test_default_modulus_override_is_silent(capsys):
    # 0x25 is the default modulus for m = 5: no warning, and the same output
    argv = ["check-apn", "taniguchi", "--m", "5", "--k", "1", "--alpha", "1", "--beta", "1"]
    code, out, err = run(capsys, *argv)
    assert err == ""
    assert run(capsys, "--modulus", "5=0x25", *argv) == (code, out, "")


def test_modulus_override_context_built_once(capsys):
    from taniapn.cli import RunConfig, _parse_modulus_override
    cfg = RunConfig(modulus_overrides=_parse_modulus_override(["5=0x2F", "3=0xD"]))
    first = cfg.ctx(3)
    assert cfg.ctx(3) is first and first.modulus == 0xD
    assert cfg.ctx(5) is cfg.ctx(5)
    err = capsys.readouterr().err
    assert err.count("warning") == 2 and err.count("for m=3;") == 1


def test_enumerate_beta_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "enumerate-beta",
                       "--m", "4", "--k", "1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "beta,orbit_representative,orbit_length"
    assert lines[1] == "0x1,0x1,1"
    assert lines[2] == "0x9,0x9,4"


def _count_element_decodes(monkeypatch):
    """Patch BetaSet.elements to decode on every read, and return the list
    that each read appends its set to."""
    from taniapn import poly_roots
    decode, reads = poly_roots.BetaSet.elements.func, []
    monkeypatch.setattr(poly_roots.BetaSet, "elements",
                        property(lambda phi: reads.append(phi) or decode(phi)))
    return reads


def test_enumerate_beta_csv_makes_one_orbit_pass(capsys, monkeypatch):
    # one vectorised decomposition serves every row; no scalar orbit walk;
    # Phi's elements are decoded once, for the beta column
    from taniapn import poly_roots
    orig, calls = poly_roots.frobenius_orbits, []
    monkeypatch.setattr(poly_roots, "frobenius_orbits", lambda phi: calls.append(phi) or orig(phi))
    reads = _count_element_decodes(monkeypatch)
    for name in ("orbit_min", "orbit_length", "frobenius_orbit"):
        monkeypatch.setattr(poly_roots, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    code, out, _ = run(capsys, "--format", "csv", "enumerate-beta", "--m", "12", "--k", "5")
    assert code == EXIT_OK
    assert len(calls) == 1 and len(calls[0]) == len(out.splitlines()) - 1
    assert len(reads) == 1 and reads[0] is calls[0]


@pytest.mark.parametrize("argv, decodes", [
    (["--format", "json", "classes", "--m", "16"], 0),
    (["classes", "--m", "16", "--k", "5"], 0),
    (["--format", "json", "audit", "--m-max", "20"], 0),
    (["--format", "json", "enumerate-beta", "--m", "12", "--k", "5"], 1),
    (["enumerate-beta", "--m", "12", "--k", "5"], 1),
])
def test_phi_elements_are_decoded_only_to_print_them(capsys, monkeypatch, argv, decodes):
    # classes and audit read Phi's orbits and size off its bitmap, so they
    # never hold its sorted elements; enumerate-beta decodes them once
    reads = _count_element_decodes(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK and len(reads) == decodes


def test_enumerate_beta_csv_matches_scalar_orbit_walk(capsys):
    from taniapn.gf2m import default_ctx
    from taniapn.poly_roots import orbit_length, orbit_min, phi_set
    for m in range(2, 13):
        ctx = default_ctx(m)
        k = max(k for k in range(1, m) if gcd(k, m) == 1)
        code, out, _ = run(capsys, "--format", "csv", "enumerate-beta",
                           "--m", str(m), "--k", str(k))
        assert code == EXIT_OK
        want = ["beta,orbit_representative,orbit_length"]
        want += [f"0x{b:X},0x{orbit_min(b, ctx):X},{orbit_length(b, ctx)}"
                 for b in phi_set(k, ctx)]
        assert out == "\n".join(want) + "\n"


def test_classes_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "classes", "--m", "4",
                       "--k", "1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k_star,alpha_star,beta_star,members"
    assert lines[1] == "1,0,,10"


def test_json_outputs_parse_and_round_trip(capsys):
    from taniapn.counting import count_report
    code, out, _ = run(capsys, "--format", "json", "table", "--m", "5..7",
                       "--full")
    assert code == EXIT_OK
    for item in json.loads(out):
        assert item == count_report(item["m"]).to_json()


def test_determinism_byte_identical(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "--format", "csv", "table", "--m", "2..20,25",
                        "--full")
        outs.add(out)
    assert len(outs) == 1


def test_closed_stdout_pipe_exits_141_without_a_message():
    # 227 KB of output, about 57 KB per k*.  When the reader closes, at
    # most a pipe's capacity (64 KB on Linux) plus the reader's one buffer
    # have been written, so a later write meets the closed pipe.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "taniapn.cli", "--format", "pretty", "classes", "--m", "16"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"m=16: 5492 classes (n(m)=5492)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""


def test_closed_stdout_pipe_mid_write_exits_141_without_a_message():
    # The 1,373 rows of --k 3 (about 56 KB) leave in few, large writes.  With
    # a 4 KB pipe the reader's close cuts such a write short.  Python's text
    # layer drops a short count, so the renderer writes to the binary buffer
    # and retries the rest, which meets the closed pipe.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set here")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "taniapn.cli", "--format", "pretty", "classes", "--m", "16",
            "--k", "3"]
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(argv, stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    with os.fdopen(r, "rb") as reader:
        assert reader.readline() == b"m=16: 1373 classes\n"
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("--format", "json", "enumerate-beta", "--m", "12", "--k", "5"),
    ("--format", "csv", "enumerate-beta", "--m", "12", "--k", "5"),
    ("--format", "pretty", "enumerate-beta", "--m", "12", "--k", "5"),
    ("--format", "json", "classes", "--m", "12"),
    ("--format", "pretty", "classes", "--m", "9", "--k", "2"),
    ("--format", "json", "audit", "--m-max", "10"),
], ids=" ".join)
def test_phi_commands_build_no_log_table(capsys, monkeypatch, argv):
    # Phi, the orbit pass and the counting oracles run on linear maps alone:
    # no context they touch builds its log/antilog pair or multiplies in bulk
    from taniapn.gf2m import FieldCtx

    def refuse(name):
        return lambda *a: pytest.fail(f"{' '.join(argv)} called {name}")

    monkeypatch.setattr(FieldCtx, "_logexp", property(refuse("_logexp")))
    monkeypatch.setattr(FieldCtx, "mul_vec", refuse("mul_vec"))
    monkeypatch.setattr(FieldCtx, "_mul_vec_raw", refuse("_mul_vec_raw"))
    monkeypatch.setattr(FieldCtx, "inverse", refuse("inverse"))
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out


def test_witness_composes_no_dense_map(capsys, monkeypatch):
    # The witness chain is composed as monomial blocks: a same-class pair
    # builds L and N once, by PairMap.monomial, and never composes or
    # inverts a dense map.  Scalar inverses are Euclid's, never pow's.
    from taniapn import linmaps
    from taniapn.gf2m import FieldCtx

    # k = 3 and 7 with alpha != 1: every elementary step enters the chain
    argv = ("--format", "json", "witness", "--from", "10,3,0x5,0xAD", "--to", "10,7,0x1F3,0x308")
    assert run(capsys, *argv)[0] == EXIT_OK  # fills the field's caches
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    inverse = FieldCtx.inverse

    def inverse_without_pow(self, a):
        before = calls["pow"]
        out = inverse(self, a)
        calls["inverse"] += 1
        calls["pow in inverse"] += calls["pow"] - before
        return out

    monkeypatch.setattr(linmaps.PairMap, "compose", counted("compose", linmaps.PairMap.compose))
    monkeypatch.setattr(linmaps.PairMap, "monomial",
                        classmethod(counted("monomial", linmaps.PairMap.monomial.__func__)))
    monkeypatch.setattr(linmaps, "gf2_invert", counted("gf2_invert", linmaps.gf2_invert))
    monkeypatch.setattr(FieldCtx, "pow", counted("pow", FieldCtx.pow))
    monkeypatch.setattr(FieldCtx, "inverse", inverse_without_pow)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and json.loads(out)["verified"] is True
    assert calls["compose"] == calls["gf2_invert"] == calls["pow in inverse"] == 0
    assert 0 < calls["monomial"] <= 2
    assert calls["inverse"] > 0
