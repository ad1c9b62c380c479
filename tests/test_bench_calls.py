"""The library calls perfbench/worker.py makes still work.

The benchmark drives taniapn from outside the package: it builds a member
from a parameter list, counts its monomial automorphisms, warms and clears
the field-context cache and runs the CLI in process.  An API change that
would break a benchmark run fails here instead.
"""

import taniapn
from taniapn import cli


def test_worker_library_calls(capsys):
    taniapn.default_ctx.cache_clear()  # a "cold" operation
    taniapn.default_ctx(5).mul_vec(1, 1)  # the warm-up of set-up
    params = taniapn.TaniguchiParams(*[5, 1, 1, 1])  # a "lib" operation: [m, k, 1, beta]
    assert taniapn.count_monomial_el_automorphisms(params) == 155
    assert cli.main(["--format", "json", "aut", "--m", "5", "--k", "1",
                     "--alpha", "1", "--beta", "1"]) == 0
    assert '"aut_el": 155' in capsys.readouterr().out
