"""Invariant-theory toolkit for regular representations of finite abelian groups.

Exact (integer/rational) computation of isotypic dimensions of symmetric and
exterior powers, their generating series, zero-sum subset counts, and symbolic
permanents/determinants of Cayley multiplication tables, together with a suite
of cross-checking oracles and consistency checkers.
"""

from .errors import GuardExceeded
from .groups import (
    FiniteAbelianGroup,
    abelian_groups_of_order,
    abelian_groups_up_to,
    parse_group,
    parse_order_profile,
    permutation_sign,
    subset_sum_zero_count,
)
from .molien import (
    bigraded_series,
    character_order_sums,
    character_order_sums_oracle,
    check_identity,
    check_reciprocity,
    ext_dim,
    ext_dim_oracle,
    ext_series,
    ext_total_dim,
    ext_total_dim_invariants,
    sym_dim,
    sym_dim_oracle,
    sym_ext_dim,
    sym_ext_dim_by_parts,
    sym_ext_dim_oracle,
    sym_series,
    zero_sum_subset_count,
)
from .numtheory import divisors, euler_phi, moebius, multinomial, ramanujan_sum
from .polynom import IntPolynomial, apply_group_action, cyclotomic_polynomial
from .report import CheckReport
from .series import TruncatedSeries1, TruncatedSeries2
from .cayley import (
    CayleyMatrix,
    build_table,
    check_action_identities,
    check_extended_counts,
    check_hall,
    check_invariance,
    check_lehmer_congruence,
    check_toeplitz_conjecture,
    determinant,
    determinant_term_count,
    hall_support,
    permanent,
    permanent_term_count,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyMatrix",
    "CheckReport",
    "FiniteAbelianGroup",
    "GuardExceeded",
    "IntPolynomial",
    "TruncatedSeries1",
    "TruncatedSeries2",
    "abelian_groups_of_order",
    "abelian_groups_up_to",
    "apply_group_action",
    "bigraded_series",
    "build_table",
    "character_order_sums",
    "character_order_sums_oracle",
    "check_action_identities",
    "check_extended_counts",
    "check_hall",
    "check_identity",
    "check_invariance",
    "check_lehmer_congruence",
    "check_reciprocity",
    "check_toeplitz_conjecture",
    "cyclotomic_polynomial",
    "determinant",
    "determinant_term_count",
    "divisors",
    "euler_phi",
    "ext_dim",
    "ext_dim_oracle",
    "ext_series",
    "ext_total_dim",
    "ext_total_dim_invariants",
    "hall_support",
    "moebius",
    "multinomial",
    "parse_group",
    "parse_order_profile",
    "permanent",
    "permanent_term_count",
    "permutation_sign",
    "ramanujan_sum",
    "subset_sum_zero_count",
    "sym_dim",
    "sym_dim_oracle",
    "sym_ext_dim",
    "sym_ext_dim_by_parts",
    "sym_ext_dim_oracle",
    "sym_series",
    "zero_sum_subset_count",
]
