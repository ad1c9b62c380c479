"""Mutation check: every verdict check and fast path must fail its tests.

    python tools/mutants.py            run every mutant
    python tools/mutants.py NAME ...   run the named mutants
    python tools/mutants.py --list     print the names

Each mutant is one text edit (file, old text, new text) that breaks a
check standing between a wrong answer and the user, or a fast path with
a slow oracle.  The tool copies src/, tests/, perfbench/ and
pyproject.toml into a temporary directory, runs the test files that own
each mutant's code there once unmutated (they must pass), then, one
mutant at a time, applies the edit, runs the owning files with pytest
-x and restores the file.  A mutant whose tests fail is KILLED; one whose
tests pass SURVIVED, and the tool exits 1.  An old text that no longer
occurs exactly once in its file is STALE (exit 2): the list must follow
the code.  Standard library only; not part of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

GF2M = "src/taniapn/gf2m.py"
LINMAPS = "src/taniapn/linmaps.py"
FAMILIES = "src/taniapn/families.py"
DIFF = "src/taniapn/diffanalysis.py"
ROOTS = "src/taniapn/poly_roots.py"
COUNTING = "src/taniapn/counting.py"
EQUIV = "src/taniapn/equivalence.py"
CLI = "src/taniapn/cli.py"

T_GF2M = ("tests/test_gf2m.py",)
T_EQUIV = ("tests/test_equivalence.py",)
T_CLI = ("tests/test_cli.py", "tests/test_cli_golden.py")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # verdict checks
    Mutant("verify-no-rank-L", EQUIV,
           "if gf2_rank(w.l_map.images()) != n or gf2_rank(w.n_map.images()) != n:",
           "if gf2_rank(w.n_map.images()) != n:", T_EQUIV),
    Mutant("verify-no-rank-N", EQUIV,
           "if gf2_rank(w.l_map.images()) != n or gf2_rank(w.n_map.images()) != n:",
           "if gf2_rank(w.l_map.images()) != n:", T_EQUIV),
    Mutant("verify-no-rank-checks", EQUIV,
           "if gf2_rank(w.l_map.images()) != n or gf2_rank(w.n_map.images()) != n:",
           "if False:", T_EQUIV),
    Mutant("verify-g-not-checked-quadratic", EQUIV,
           "if not (f.is_quadratic and g.is_quadratic):",
           "if not f.is_quadratic:", T_EQUIV),
    Mutant("witness-unverified-exits-0", CLI,
           "return EXIT_OK if ok else EXIT_AUDIT_FAIL", "return EXIT_OK", T_CLI),
    Mutant("witness-inequivalent-exits-0", CLI,
           "return EXIT_OK if equivalent else EXIT_NEGATIVE", "return EXIT_OK", T_CLI),
    Mutant("check-apn-no-disagreement-report", CLI,
           "    if mismatch:\n"
           "        print(\"error: criterion and exhaustive scan disagree\", file=sys.stderr)\n"
           "        return EXIT_AUDIT_FAIL\n",
           "", T_CLI),
    Mutant("audit-failure-exits-0", CLI,
           "return EXIT_AUDIT_FAIL if failures else EXIT_OK", "return EXIT_OK", T_CLI),
    Mutant("audit-N-from-formula", CLI,
           '"N": counting.subfield_n(m, s),', '"N": counting.capital_n(m),', T_CLI),
    Mutant("spectrum-no-mass-assert", DIFF,
           '    assert mass == (size - 1) * size, "histogram mass mismatch"\n', "",
           ("tests/test_diffanalysis.py",)),
    Mutant("count-report-no-bound-assert", COUNTING,
           "    assert report.n_taniguchi >= report.lower_bound\n", "",
           ("tests/test_counting.py",)),
    Mutant("aut-m4-alpha0-branch", EQUIV,
           "if m == 4:\n            el = 3 * m * (ctx.order - 1)\n",
           "if m == 4:\n            el = 3 * m * (ctx.order - 1) // 2\n", T_EQUIV),
    Mutant("renderer-last-digit", CLI,
           "        keep[:, -1] = True\n", "", ("tests/test_cli_render.py",) + T_CLI),
    Mutant("renderer-single-width-off-by-one", CLI,
           "if self.width(v.min()) == width:", "if self.width(v.min()) >= width - 1:",
           ("tests/test_cli_render.py",) + T_CLI),
    Mutant("renderer-hex-pairs-odd-width", CLI,
           "text.reshape(-1, 8)[:, 8 - width:]", "text.reshape(-1, 8)[:, 8 - (width + 1) // 2 * 2:]",
           ("tests/test_cli_render.py",) + T_CLI),
    Mutant("renderer-short-write-dropped", CLI,
           "        view = view[written:]\n", "        view = view[len(view):]\n",
           ("tests/test_cli_render.py",) + T_CLI),
    # fast paths, each against its oracle
    Mutant("phi-cross-term", ROOTS, "cross = prod ^ prod.T", "cross = prod",
           ("tests/test_poly_roots.py",)),
    Mutant("orbit-filter-comparison", ROOTS, "kept = cur > x", "kept = cur >= x",
           ("tests/test_poly_roots.py",)),
    Mutant("squares-closure-check", ROOTS, "if escaped.any():", "if False:",
           ("tests/test_poly_roots.py",)),
    Mutant("orbit-last-block-skipped", ROOTS,
           "for lo in range(0, bitmap.size, step):",
           "for lo in range(0, max(bitmap.size - step, 1), step):", ("tests/test_poly_roots.py",)),
    Mutant("bitmap-bit-order", ROOTS,
           'np.unpackbits(bitmap[lo:lo + step], bitorder="little")',
           'np.unpackbits(bitmap[lo:lo + step], bitorder="big")', ("tests/test_poly_roots.py",)),
    Mutant("root-scan-last-block-skipped", ROOTS,
           "for lo in range(0, ctx.order, BLOCK):\n        x = np.arange(",
           "for lo in range(0, max(ctx.order - BLOCK, 1), BLOCK):\n        x = np.arange(",
           ("tests/test_poly_roots.py",)),
    Mutant("phi-last-batch-skipped", ROOTS,
           "for u in range(1 << t, ctx.order, 1 << t):",
           "for u in range(1 << t, ctx.order - (1 << t), 1 << t):", ("tests/test_poly_roots.py",)),
    Mutant("transform-beta-exponent", ROOTS,
           "e = (1 << ((ctx.m - k) % ctx.m)) + 1", "e = (1 << (k % ctx.m)) + 1",
           ("tests/test_poly_roots.py",) + T_EQUIV),
    Mutant("kernel-rank-pivot", LINMAPS,
           "has = pivot >= 1 << bit", "has = pivot > 1 << bit",
           ("tests/test_linmaps.py", "tests/test_diffanalysis.py")),
    Mutant("rootless-rank-identity", ROOTS,
           "frob = ctx.pow2k_vec(q, k) ^ q", "frob = q ^ q",
           ("tests/test_poly_roots.py",)),
    Mutant("subfield-basis", COUNTING,
           "gf2_kernel((frob ^ basis).tolist())",
           "gf2_kernel((ctx.square_vec(frob) ^ basis).tolist())",
           ("tests/test_counting.py",)),
    Mutant("moebius-sign-dropped", COUNTING,
           "else (-1) ** len(fac)", "else 1", ("tests/test_counting.py",)),
    Mutant("burnside-weight", COUNTING,
           "euler_phi(m // d) * counts[d]", "euler_phi(d) * counts[d]",
           ("tests/test_counting.py",)),
    Mutant("kernel-rows-keep-a-zero", DIFF,
           "        if lo == 0:\n            dims[n] -= 1  # a = 0, where L_0 = 0\n", "",
           ("tests/test_diffanalysis.py",)),
    Mutant("kernel-rows-no-high-column", DIFF,
           "np.bitwise_xor(low, high[:, None], out=rows)", "np.bitwise_xor(low, 0, out=rows)",
           ("tests/test_diffanalysis.py",)),
    Mutant("bilinear-form-one-triangle", DIFF,
           "form[i, j] = form[j, i] = ", "form[i, j] = ",
           ("tests/test_diffanalysis.py",)),
    Mutant("moebius-weight-2-set", FAMILIES,
           "for j in range(i + 1)]", "for j in range(i)]",
           ("tests/test_families.py", "tests/test_diffanalysis.py")),
    Mutant("byte-gather-top-byte", GF2M,
           "imgs[(n + 1) // 2:]]", "imgs[(n + 1) // 2:-1]]", T_GF2M),
    Mutant("linear-map-high-half-dropped", GF2M,
           "        out ^= high.take(flat >> np.uint32(low.size.bit_length() - 1))\n", "",
           T_GF2M),
    Mutant("product-table-index", GF2M,
           "take((a << np.uint32(self.m)) | b)", "take((a << np.uint32(self.m - 1)) | b)",
           T_GF2M),
    Mutant("product-table-bound", GF2M,
           "_PRODUCT_TABLE_DEGREE_LIMIT = 8", "_PRODUCT_TABLE_DEGREE_LIMIT = 7",
           T_GF2M + ("tests/test_cli.py",)),
    Mutant("pair-pack-no-widening", LINMAPS,
           "dtype = np.uint32 if 2 * m <= 32 else np.uint64", "dtype = np.uint32",
           ("tests/test_linmaps.py", "tests/test_families.py") + T_EQUIV),
    Mutant("pairmap-monomial-frobenius", LINMAPS,
           "ctx.pow2k_vec(basis, mono[1])", "ctx.pow2k_vec(basis, mono[1] + 1)",
           ("tests/test_linmaps.py",)),
    Mutant("aut-frobenius-image-power-off", EQUIV,
           "frob = np.stack([ctx.pow2k_vec(halves, u) for u in range(m)])",
           "frob = np.stack([np.concatenate([ctx.pow2k_vec(halves[:2], u),\n"
           "                                 ctx.pow2k_vec(halves[2:], u + 1)]) for u in range(m)])",
           T_EQUIV),
    Mutant("aut-sieve-drops-a-candidate", EQUIV,
           "cand = cand[keep]", "cand = cand[keep][1:]", T_EQUIV),
    Mutant("canonical-orbit-max", EQUIV,
           "beta_star = min(orbit)", "beta_star = max(orbit)", T_EQUIV),
    Mutant("canonical-swap-twist", EQUIV,
           "3 * k % m", "k % m", T_EQUIV),
    Mutant("monomial-compose-frobenius", EQUIV,
           "ctx.mul(c1, ctx.pow2k(c2, d1))", "ctx.mul(c1, ctx.pow2k(c2, d2))", T_EQUIV),
    Mutant("euclid-no-swap", GF2M,
           "                g1, g2 = g2, g1\n", "", T_GF2M),
]


def run_tests(tree: Path, files: tuple[str, ...]) -> bool:
    """Whether pytest passes on these test files of the copied tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names")
    args = parser.parse_args(argv)
    if args.list:
        for mut in MUTANTS:
            print(f"{mut.name:34} {mut.path}")
        return 0
    unknown = set(args.names) - {mut.name for mut in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [mut for mut in MUTANTS if not args.names or mut.name in args.names]

    stale = [mut.name for mut in chosen if (ROOT / mut.path).read_text().count(mut.old) != 1]
    if stale:
        print("STALE " + " ".join(stale))
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(src, tree / name)
        owners = tuple(sorted({f for mut in chosen for f in mut.tests}))
        if not run_tests(tree, owners):
            print("the unmutated tree fails its own tests: " + " ".join(owners))
            return 2
        survived = []
        for mut in chosen:
            path = tree / mut.path
            original = path.read_text()
            path.write_text(original.replace(mut.old, mut.new))
            t0 = time.perf_counter()
            killed = not run_tests(tree, mut.tests)
            path.write_text(original)
            print(f"{'KILLED' if killed else 'SURVIVED':8} {mut.name:34} "
                  f"{time.perf_counter() - t0:5.1f} s", flush=True)
            if not killed:
                survived.append(mut.name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
