"""Tracing from outside the program: wrappers, spans and per-layer metrics.

install() wraps the public entry points of each taniapn module in place,
and uninstall() puts the program's own objects back: module functions at
every module namespace that binds them, methods and cached properties on
their classes.  Each wrapper records a span (name, start, end, parent) in
memory; the spans are written out once, at the end of the run, and
per_layer() turns them into self times and counts.  A span's self time
is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from functools import cached_property

# span name -> (self-time metric, ((count metric, what one span adds), ...))
# A span adds 1 to a "span" count, and the size of its result to a "size" count.
_BULK = ("gf2m.bulk_s", (("gf2m.bulk_elems", "size"),))
_TABLE = ("families.table_s", (("families.tables", "span"), ("families.table_entries", "size")))
LAYERS = {
    "cli.main": ("cli.self_s", ()),
    "gf2m.FieldCtx._logexp": ("gf2m.table_build_s", (("gf2m.table_builds", "span"),)),
    "gf2m.FieldCtx.mul_vec": _BULK,
    "gf2m.FieldCtx.square_vec": _BULK,
    "gf2m.FieldCtx.pow2k_vec": _BULK,
    "gf2m.FieldCtx.pow_vec": _BULK,
    "families.BivariateFunction._table": _TABLE,
    "families.GoldFunction._table": _TABLE,
    "diffanalysis.is_apn": ("diffanalysis.is_apn_s", (("diffanalysis.calls", "span"),)),
    "diffanalysis.differential_spectrum": ("diffanalysis.spectrum_s",
                                           (("diffanalysis.calls", "span"),)),
    "poly_roots.phi_set": ("poly_roots.phi_set_s", ()),
    "poly_roots.frobenius_orbits": ("poly_roots.orbits_s", ()),
    "poly_roots.orbit_min": ("poly_roots.orbit_scalar_s", ()),
    "poly_roots.orbit_length": ("poly_roots.orbit_scalar_s", ()),
    "poly_roots.count_roots": ("poly_roots.count_roots_s",
                               (("poly_roots.count_roots_calls", "span"),)),
    "counting.oracle_capital_n": ("counting.oracle_s", ()),
    "counting.oracle_b": ("counting.oracle_s", ()),
    "counting.count_report": ("counting.closed_form_s", ()),
    "counting.capital_m": ("counting.closed_form_s", ()),
    "counting.capital_n": ("counting.closed_form_s", ()),
    "counting.b_orbits": ("counting.closed_form_s", ()),
    "counting.n_taniguchi": ("counting.closed_form_s", ()),
    "counting.lower_bound": ("counting.closed_form_s", ()),
    "linmaps.PairMap.images": ("linmaps.images_s", (("linmaps.images_calls", "span"),)),
    "linmaps.PairMap.compose": ("linmaps.compose_s", ()),
    "linmaps.PairMap.inverse": ("linmaps.inverse_s", ()),
    "linmaps.PairMap.table": ("linmaps.table_s", ()),
    "linmaps.table_from_images": ("linmaps.table_s", ()),
    "equivalence.verify_witness": ("equivalence.verify_s", (("equivalence.verifies", "span"),)),
    "equivalence.monomial_el_automorphisms": ("equivalence.monomial_s", ()),
    "equivalence.count_monomial_el_automorphisms": ("equivalence.monomial_s", ()),
    "equivalence.equivalence_witness": ("equivalence.witness_s", ()),
    "equivalence.canonical_witness": ("equivalence.witness_s", ()),
    "equivalence.compose_witness": ("equivalence.witness_s", ()),
    "equivalence.invert_witness": ("equivalence.witness_s", ()),
    "equivalence.canonicalize": ("equivalence.canonicalize_s", ()),
    "equivalence.are_ccz_equivalent": ("equivalence.canonicalize_s", ()),
}

# (name, unit) of every per-layer metric, in the order the traced run prints them.
METRICS: list[tuple[str, str]] = []
for _time_metric, _counts in LAYERS.values():
    for _entry in [(_time_metric, "s")] + [(c, "count") for c, _ in _counts]:
        if _entry not in METRICS:
            METRICS.append(_entry)


class Recorder:
    """Spans kept in memory: names[i], starts[i], ends[i], parents[i], sizes[i]."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object, object]] = []  # (owner, attr, orig, wrapper)

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        sized = any(what == "size" for _, what in LAYERS[name][1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self.sizes.append(0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if sized:
                self.sizes[idx] = int(getattr(result, "size", 1))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point named in LAYERS, wherever it is bound."""
        if not self._wrapped:
            self._wrapped = list(self._targets())
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped name back to the program's own object."""
        for owner, attr, orig, _ in self._wrapped:
            setattr(owner, attr, orig)

    def _targets(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "taniapn" or key.startswith("taniapn.")]
        for name in LAYERS:
            module_name, _, attr = name.partition(".")
            module = sys.modules[f"taniapn.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, cached_property):
                    new = cached_property(self.wrap(name, orig.func))
                    new.__set_name__(cls, attr)
                else:
                    new = self.wrap(name, orig)
                yield cls, attr, orig, new
                continue
            orig = getattr(module, attr)
            new = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        yield mod, key, orig, new

    def dump(self) -> dict:
        return {"names": self.names, "starts": self.starts, "ends": self.ends,
                "parents": self.parents, "sizes": self.sizes}


def per_layer(spans: dict, rounds: int) -> dict[str, float]:
    """Self time and counts per metric, as a mean over `rounds` rounds."""
    names, starts, ends = spans["names"], spans["starts"], spans["ends"]
    child = [0.0] * len(names)
    for i, parent in enumerate(spans["parents"]):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    totals = {name: 0 for name, _ in METRICS}
    for i, name in enumerate(names):
        time_metric, counts = LAYERS[name]
        totals[time_metric] += ends[i] - starts[i] - child[i]
        for count, what in counts:
            totals[count] += spans["sizes"][i] if what == "size" else 1
    return {name: totals[name] / rounds if unit == "s" or totals[name] % rounds
            else totals[name] // rounds for name, unit in METRICS}
