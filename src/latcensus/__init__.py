"""latcensus: exact census of integer sublattices of Z^n by quotient group.

Counts, classifies, and uniformly samples full-rank sublattices L of Z^n
according to the finite abelian quotient Z^n/L, with exact arithmetic
throughout, brute-force oracles for every closed form, and error-bounded
evaluation of the limiting density constants.

`import latcensus` loads no layer module: each public name below imports
its home module on first access (PEP 562), so a process loads only the
layers its calls reach.
"""

__version__ = "0.1.0"

# home module -> the public names it lends the package
_EXPORTS = {
    "arith": "FactoredInt SieveTable abelian_group_count euler_phi factorize fn_weight is_squarefree"
    " landau_sum mobius omega partition_count squarefree_coprime_count ward_sum",
    "constants": "delta_rank_at_least_bound delta_rank_at_most density_cocyclic_limit"
    " density_squarefree_limit gekeler_cyclic gekeler_squarefree landau_prediction rank_prob rho"
    " rho_n rho_n_product squarefree_coprime_prediction theta theta_n theta_product theta_sandwich"
    " uniform_density_cyclic uniform_density_squarefree xi xi_inf zeta",
    "counting": "census_cocyclic_bruteforce count_by_rank count_by_rank_bruteforce count_cocyclic"
    " count_primitive_classes count_primitive_classes_bruteforce count_squarefree"
    " primitive_class_representatives total_count",
    "errbound": "ErrBoundedReal",
    "errors": "CapExceededError NotPrimitiveError PrecisionError SingularMatrixError",
    "groups": "AbelianGroup aut_order aut_order_bruteforce aut_order_pgroup aut_order_qm"
    " cl_predicate_mass cl_total_mass enumerate_groups generating_tuples_count pak_check"
    " primitive_class_count",
    "lattice": "CongruenceVector HnfBasis InvariantFactors are_equivalent count_sublattices"
    " enumerate_sublattices hnf_canonicalize is_cocyclic lattice_from_congruence quotient_rank"
    " sample_cocyclic smith_invariants",
    "rng": "SplitMix64",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME.update({module: module for module in _EXPORTS})
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows the load under `-X importtime`
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    # kept as a global, so later lookups of the name skip this function
    value = globals()[name] = module if _HOME[name] == name else getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))
