"""Exact-arithmetic toolkit for ranked posets.

Construction and queries (core), the named poset families (families),
structural checkers and chain coverings (properties), antichain and k-Sperner
machinery (sperner), the AZ-type identities (az), and the 2-part Sperner
results on products (twopart).  All identity checks are exact equalities over
Fraction.

Importing the package loads none of these modules.  Each public name is
looked up in its home module on first use (PEP 562) and kept here after, so
`azsperner.X` is `azsperner.<module>.X` and a script pays only for the
modules it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "az": (
        "AZReport", "SkewPairSystem", "adjoin_bounds", "antichain_az", "az_identity_sum",
        "beta", "boundary_chain_fractions", "compute_w", "interval_w_sum", "k_sperner_az",
        "key_lemma_sum", "second_az_identity",
    ),
    "core": ("Family", "RankedPoset", "build_poset", "from_json"),
    "families": (
        "gen_affine_poset", "gen_boolean", "gen_chain_product", "gen_divisor_lattice",
        "gen_fig1a", "gen_fig1b", "gen_star_power", "gen_subspace_lattice",
        "parse_poset_spec", "product", "truncate",
    ),
    "properties": (
        "ChainCovering", "LambdaTable", "build_chain_covering", "check_level_connected",
        "check_normal", "check_regular", "check_strictly_normal", "check_strongly_regular",
        "lambda_table", "verify_chain_covering",
    ),
    "sperner": (
        "check_strict_k_sperner", "check_strict_lym", "dual_dilworth_decompose",
        "enumerate_maximum_antichains", "enumerate_maximum_k_sperner", "is_k_sperner",
        "lym_sum", "max_antichain",
    ),
    "twopart": (
        "Transversal", "best_full_transversal", "chain_pair_bound", "is_two_part_sperner",
        "max_two_part_sperner_exact", "product_covering_report", "two_part_az_sum",
        "two_part_lym", "two_part_sperner_identity", "verify_strict_two_part",
        "well_paired_family",
    ),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
