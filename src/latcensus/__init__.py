"""latcensus: exact census of integer sublattices of Z^n by quotient group.

Counts, classifies, and uniformly samples full-rank sublattices L of Z^n
according to the finite abelian quotient Z^n/L, with exact arithmetic
throughout, brute-force oracles for every closed form, and error-bounded
evaluation of the limiting density constants.
"""

from .arith import (
    FactoredInt,
    SieveTable,
    abelian_group_count,
    euler_phi,
    factorize,
    fn_weight,
    is_squarefree,
    landau_sum,
    mobius,
    omega,
    partition_count,
    squarefree_coprime_count,
    ward_sum,
)
from .constants import (
    delta_rank_at_least_bound,
    delta_rank_at_most,
    density_cocyclic_limit,
    density_squarefree_limit,
    gekeler_cyclic,
    gekeler_squarefree,
    landau_prediction,
    rank_prob,
    rho,
    rho_n,
    rho_n_product,
    squarefree_coprime_prediction,
    theta,
    theta_n,
    theta_product,
    theta_sandwich,
    uniform_density_cyclic,
    uniform_density_squarefree,
    xi,
    xi_inf,
    zeta,
)
from .counting import (
    census_cocyclic_bruteforce,
    count_by_rank,
    count_by_rank_bruteforce,
    count_cocyclic,
    count_primitive_classes,
    count_primitive_classes_bruteforce,
    count_squarefree,
    primitive_class_representatives,
    total_count,
)
from .errbound import ErrBoundedReal
from .errors import (
    CapExceededError,
    NotPrimitiveError,
    PrecisionError,
    SingularMatrixError,
)
from .groups import (
    AbelianGroup,
    aut_order,
    aut_order_bruteforce,
    aut_order_pgroup,
    aut_order_qm,
    cl_predicate_mass,
    cl_total_mass,
    enumerate_groups,
    generating_tuples_count,
    pak_check,
    primitive_class_count,
)
from .lattice import (
    CongruenceVector,
    HnfBasis,
    InvariantFactors,
    are_equivalent,
    count_sublattices,
    enumerate_sublattices,
    hnf_canonicalize,
    is_cocyclic,
    lattice_from_congruence,
    quotient_rank,
    sample_cocyclic,
    smith_invariants,
)
from .rng import SplitMix64

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: EULER_MASCHERONI is built on first access
    if name == "EULER_MASCHERONI":
        return constants.EULER_MASCHERONI
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
