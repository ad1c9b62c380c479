"""Shared fixtures."""

import tracemalloc

import numpy as np
import pytest

from taniapn.gf2m import FieldCtx
from taniapn.poly_roots import BetaSet


def beta_set(ctx, k, elements):
    """The BetaSet of these elements of ctx's field: its bitmap is their
    membership mask, packed.  Test modules import it from here."""
    mask = np.zeros(ctx.order, dtype=bool)
    mask[np.asarray(elements, dtype=np.int64)] = True
    return BetaSet(ctx, k, np.packbits(mask, bitorder="little"))


@pytest.fixture
def forbid_generator_walk(monkeypatch):
    """A function that, once called, makes the generator, the geometric runs
    (_powers, _times), the log table and both bulk products of every
    FieldCtx raise until the test ends.  Cached values cannot hide a call:
    the patched generator and _logexp are data descriptors, which take
    precedence over an instance's cached copy."""

    def fail(*_):
        raise AssertionError("this path must not walk the generator or use the log table")

    def arm():
        for name in ("_powers", "_times", "mul_vec", "_mul_vec_raw"):
            monkeypatch.setattr(FieldCtx, name, fail)
        for name in ("generator", "_logexp"):
            monkeypatch.setattr(FieldCtx, name, property(fail))

    return arm


@pytest.fixture
def peak_mb():
    """A function that runs fn() under tracemalloc and returns its result
    and the peak of the memory it traced, in MB (numpy arrays included)."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    return run
