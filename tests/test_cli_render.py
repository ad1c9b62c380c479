"""The CLI's numpy renderer against its slow oracles.

enumerate-beta and classes print their per-element rows with numpy, in
batches (cli._write_rows).  The oracles are the objects' to_json() dicts
through json.dumps(indent=2, sort_keys=True) for JSON, and for pretty and
CSV the f-string formatting the CLI used before the renderer.
"""

import contextlib
import io
import json
import sys
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from taniapn import cli
from taniapn.counting import n_taniguchi
from taniapn.gf2m import coprime_residues, default_ctx
from taniapn.poly_roots import frobenius_orbits, phi_set

EDGES = [0, 0xF, 0x10, 2**32 - 1]


def stdout_of(fn, *args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn(*args)
    return buf.getvalue()


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Oracles: the formatting the CLI did before the renderer
# ---------------------------------------------------------------------------

def enumerate_beta_oracle(fmt: str, m: int, k: int) -> str:
    phi = phi_set(k, default_ctx(m))
    dec = frobenius_orbits(phi)
    if fmt == "json":
        return dumps({"phi": phi.to_json(), "orbits": dec.to_json()})
    reps, lengths = dec.representatives.tolist(), dec.lengths.tolist()
    if fmt == "csv":
        lines = ["beta,orbit_representative,orbit_length"]
        lines += [f"0x{b:X},0x{reps[i]:X},{lengths[i]}"
                  for b, i in zip(phi, dec.orbit_of.tolist())]
    else:
        lines = [f"m={m} k={k} |Phi|={len(phi)} orbits={len(dec)}",
                 "phi: " + " ".join(f"0x{b:X}" for b in phi)]
        lines += [f"orbit 0x{r:X} length {n}" for r, n in zip(reps, lengths)]
    return "\n".join(lines) + "\n"


def classes_oracle(fmt: str, m: int, k: int | None) -> str:
    ctx = default_ctx(m)
    k_stars = ([min(k % m, m - k % m)] if k is not None
               else [k for k in coprime_residues(m) if k < m / 2])
    rows = []
    for ks in k_stars:
        if m % 2 == 0:
            rows.append({"k_star": ks, "alpha_star": 0, "beta_star": None,
                         "members": 2 * (ctx.order - 1) // 3})
        dec = frobenius_orbits(phi_set(ks, ctx))
        for rep, length in zip(dec.representatives.tolist(), dec.lengths.tolist()):
            rows.append({"k_star": ks, "alpha_star": 1,
                         "beta_star": f"0x{rep:X}", "members": length})
    if fmt == "json":
        return dumps({"m": m, "classes": rows, "count": len(rows)})
    if fmt == "csv":
        lines = ["k_star,alpha_star,beta_star,members"]
        lines += [f"{r['k_star']},{r['alpha_star']},{r['beta_star'] or ''},{r['members']}"
                  for r in rows]
    else:
        lines = [f"m={m}: {len(rows)} classes"
                 + ("" if k is not None else f" (n(m)={n_taniguchi(m)})")]
        lines += [f"  (k={r['k_star']}, alpha={r['alpha_star']}, "
                  f"beta={r['beta_star'] or '*'})  members {r['members']}" for r in rows]
    return "\n".join(lines) + "\n"


def run_cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK
    return buf.getvalue()


def check_against_oracles(m: int, ks) -> None:
    for fmt in ("json", "csv", "pretty"):
        for k in ks:
            assert run_cli("--format", fmt, "enumerate-beta", "--m", m, "--k", k) \
                == enumerate_beta_oracle(fmt, m, k)
        if m >= 3:
            assert run_cli("--format", fmt, "classes", "--m", m) == classes_oracle(fmt, m, None)
            for k in ks:
                assert run_cli("--format", fmt, "classes", "--m", m, "--k", k) \
                    == classes_oracle(fmt, m, k)


# ---------------------------------------------------------------------------
# The renderer against json.dumps
# ---------------------------------------------------------------------------

sorted_u32 = st.lists(st.sampled_from(EDGES) | st.integers(0, 2**32 - 1),
                      max_size=40).map(lambda xs: np.array(sorted(xs), dtype=np.uint32))


@given(sorted_u32, st.integers(0, 2**32 - 1))
@example(np.array([], dtype=np.uint32), 0)
@example(np.array([0x10], dtype=np.uint32), 0xF)
@example(np.array(EDGES, dtype=np.uint32), 2**32 - 1)
def test_json_rows_match_json_dumps_at_every_depth(values, scalar):
    """Hex strings, objects with a hex and a decimal field, and groups after
    a plain item, at the depths the CLI uses (0, 1 and 2) and one deeper."""
    hexes = [f"0x{v:X}" for v in values.tolist()]
    objs = [{"length": v, "representative": f"0x{v:X}"} for v in values.tolist()]
    rendered_strings = cli._JsonList([cli._Col(values)])
    rendered_objs = cli._JsonList([{"representative": cli._Col(values),
                                    "length": cli._Col(values, base=10)}])
    mixed = cli._JsonList([{"beta_star": None, "members": scalar},
                           {"beta_star": cli._Col(values), "members": cli._Col(values, base=10)}])
    mixed_want = [{"beta_star": None, "members": scalar}]
    mixed_want += [{"beta_star": f"0x{v:X}", "members": v} for v in values.tolist()]
    cases = [
        (rendered_strings, hexes),
        ({"classes": mixed, "count": scalar}, {"classes": mixed_want, "count": scalar}),
        ({"phi": {"elements": rendered_strings, "k": 1}, "orbits": {"orbits": rendered_objs}},
         {"phi": {"elements": hexes, "k": 1}, "orbits": {"orbits": objs}}),
        ({"a": {"b": {"c": rendered_objs, "d": []}}}, {"a": {"b": {"c": objs, "d": []}}}),
    ]
    for obj, want in cases:
        assert stdout_of(cli._emit_json, obj) == dumps(want)


@given(sorted_u32)
@example(np.array([], dtype=np.uint32))
@example(np.array([0], dtype=np.uint32))
@example(np.array(EDGES, dtype=np.uint32))
def test_rows_match_f_strings(values):
    vs = values.tolist()
    row = [b"<0x", cli._Col(values), b"|", cli._Col(values, base=10), b">"]
    for batch in (cli.BLOCK, 3):
        with mock.patch.object(cli, "BLOCK", batch):
            assert stdout_of(cli._write_rows, row) == "".join(f"<0x{v:X}|{v}>" for v in vs)
            assert stdout_of(cli._write_rows, row, b", ") == \
                ", ".join(f"<0x{v:X}|{v}>" for v in vs)
            assert stdout_of(cli._write_rows, [b"no columns"], b",") == "no columns"


unsorted_u32 = st.lists(st.sampled_from(EDGES) | st.integers(0, 300) | st.integers(0, 2**32 - 1),
                        max_size=40).map(lambda xs: np.array(xs, dtype=np.uint32))


@given(unsorted_u32)
@example(np.array([0x10, 0, 0xF, 9, 10, 0, 2**32 - 1], dtype=np.uint32))
@example(np.array([0, 0, 0, 0x10], dtype=np.uint32))
def test_unsorted_rows_match_f_strings(values):
    # Unsorted columns cut no batch, so their widths mix inside one: the
    # leading zeros of those batches are compacted away, and a 0 keeps its
    # last digit.  The sorted column beside them cuts where it gains a
    # digit; with batches of 3 rows, widths change on both sides of a cut.
    vs, ss = values.tolist(), sorted(values.tolist())
    row = [b"<0x", cli._Col(values), b"|", cli._Col(values, base=10), b"|0x",
           cli._Col(np.sort(values)), b">"]
    want = [f"<0x{v:X}|{v}|0x{s:X}>" for v, s in zip(vs, ss)]
    for batch in (cli.BLOCK, 3):
        with mock.patch.object(cli, "BLOCK", batch):
            assert stdout_of(cli._write_rows, row) == "".join(want)
            assert stdout_of(cli._write_rows, row, b"\n") == "\n".join(want)


def test_rows_go_to_the_binary_buffer_after_the_text():
    # a stream with a binary buffer gets the rows there, after the text
    # written before them has been flushed to it
    buf = io.BytesIO()
    stream = io.TextIOWrapper(buf, encoding="ascii", newline="")
    values = np.array([1, 0x10, 0xABC], dtype=np.uint32)
    with contextlib.redirect_stdout(stream):
        sys.stdout.write("head:")
        cli._write_rows([b"0x", cli._Col(values)], b" ")
        sys.stdout.write(":tail")
    stream.flush()
    assert buf.getvalue() == b"head:0x1 0x10 0xABC:tail"


def test_short_writes_are_retried():
    # a binary buffer that takes at most 3 bytes per call, as a pipe whose
    # reader lags may: the rest of each batch is written again until it is out
    class Trickle:
        def __init__(self):
            self.data = b""

        def write(self, data) -> int:
            self.data += bytes(data[:3])
            return min(3, len(data))

    stream = io.StringIO()
    stream.buffer = Trickle()
    values = np.arange(0, 40, 3, dtype=np.uint32)
    with contextlib.redirect_stdout(stream):
        cli._write_rows([b"0x", cli._Col(values)], b",")
    assert stream.buffer.data.decode() == ",".join(f"0x{v:X}" for v in values.tolist())
    assert stream.getvalue() == ""

    # a write that takes nothing (None from a non-blocking raw stream whose
    # pipe is full, or 0) raises instead of retrying forever
    for stall in (None, 0):
        class Stall:
            calls = 0

            def write(self, data):
                self.calls += 1
                return 3 if self.calls == 1 else stall

        stream = io.StringIO()
        stream.buffer = Stall()
        with contextlib.redirect_stdout(stream), pytest.raises(BlockingIOError):
            cli._write_rows([b"0x", cli._Col(values)], b",")
        assert stream.buffer.calls == 2


# ---------------------------------------------------------------------------
# The commands against their oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 13))
def test_batched_output_matches_oracles(m, monkeypatch):
    # batches of 16 rows, so every list above 16 items crosses a boundary
    monkeypatch.setattr(cli, "BLOCK", 1 << 4)
    check_against_oracles(m, [k for k in range(1, m) if gcd(k, m) == 1])


@pytest.mark.slow
@pytest.mark.parametrize("m", [20, 22])
def test_large_output_matches_oracles(m):
    check_against_oracles(m, [1, 7])
