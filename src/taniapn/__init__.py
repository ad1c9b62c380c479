"""Taniguchi APN functions on GF(2^(2m)).

Construction and evaluation of the bivariate family
f_{k,alpha,beta}(x,y) = (x^(2^(2k)(2^k+1)) + alpha x^(2^(2k)) y^(2^k)
+ beta y^(2^k+1), xy), exhaustive differential verification, the
CCZ-equivalence decision with constructive witnesses, automorphism-group
orders, and the exact counting pipeline (with brute-force oracles for
every closed form).
"""

from .counting import (
    CountReport,
    b_orbits,
    capital_m,
    capital_n,
    count_report,
    euler_phi,
    lower_bound,
    n_taniguchi,
    oracle_b,
    oracle_capital_n,
)
from .diffanalysis import DifferentialSpectrum, differential_spectrum, is_apn
from .equivalence import (
    AutOrders,
    AutWitness,
    CanonicalTriple,
    LinearWitness,
    are_ccz_equivalent,
    aut_orders,
    canonical_witness,
    canonicalize,
    compose_witness,
    count_monomial_el_automorphisms,
    equivalence_witness,
    identity_witness,
    invert_witness,
    monomial_el_automorphisms,
    pott_zhou_aut_order,
    pott_zhou_bridge_witness,
    verify_witness,
)
from .errors import (
    DegreeMismatch,
    InvalidK,
    InvalidParams,
    NonIntegralOrbitCount,
    NotApn,
    NotFrobeniusClosed,
    TaniapnError,
    TooLarge,
    ZeroAlpha,
    ZeroInput,
    ZeroInverse,
)
from .families import (
    BivariateFunction,
    GoldFunction,
    PottZhouParams,
    TaniguchiParams,
    TruthTableFunction,
    gold,
    load_function,
    materialize,
    save_function,
)
from .gf2m import MODULUS_TABLE, FieldCtx, default_ctx
from .poly_roots import (
    BetaSet,
    OrbitDecomposition,
    count_roots,
    frobenius_orbits,
    phi_set,
    transform_beta,
)

__version__ = "0.1.0"
