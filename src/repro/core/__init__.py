"""Core of the reproduction: the paper's primary contribution.

Differentials and density functions (Section 2.1), witness sets and
lattice decompositions (Section 2.2), differential constraints and their
implication problem (Section 3), and the sound and complete inference
system with constructive completeness (Section 4).
"""

from repro.core.ground import GroundSet
from repro.core.family import SetFamily
from repro.core.setfunction import (
    DEFAULT_TOLERANCE,
    SetFunction,
    SparseDensityFunction,
)
from repro.core.constraint import DENSITY, DIFFERENTIAL, DifferentialConstraint
from repro.core.constraint_set import ConstraintSet
from repro.core.differential import (
    density_family_for,
    density_value_by_definition,
    differential_apply_delta,
    differential_function,
    differential_function_by_definition,
    differential_value,
    differential_via_density,
)
from repro.core.witness import (
    count_witnesses,
    is_witness,
    iter_witnesses,
    minimal_witnesses,
    witnesses,
)
from repro.core.lattice import (
    in_lattice,
    iter_lattice,
    iter_lattice_by_witnesses,
    lattice,
    lattice_bitset,
    lattice_size,
    proposition_2_8_split,
)
from repro.core.implication import (
    decide,
    fd_closure,
    find_uncovered,
    find_uncovered_engine,
    find_uncovered_sat,
    implies_engine,
    implies_fd,
    implies_lattice,
    implies_sat,
    in_fd_fragment,
)
from repro.core.counterexample import (
    principal_ideal_function,
    refute,
    semantic_implies_over_ideals,
    sparse_principal_ideal_function,
)
from repro.core.decomposition import atom, atoms, decomp
from repro.core.proofs import Proof, check_proof
from repro.core.derivation import derivation_size, derive
from repro.core.closure import ImpliedConstraintOracle, atomic_representation
from repro.core.armstrong import armstrong_database, armstrong_function

__all__ = [
    "GroundSet",
    "SetFamily",
    "SetFunction",
    "SparseDensityFunction",
    "DEFAULT_TOLERANCE",
    "DENSITY",
    "DIFFERENTIAL",
    "DifferentialConstraint",
    "ConstraintSet",
    "density_family_for",
    "density_value_by_definition",
    "differential_function",
    "differential_function_by_definition",
    "differential_value",
    "differential_apply_delta",
    "differential_via_density",
    "count_witnesses",
    "is_witness",
    "iter_witnesses",
    "minimal_witnesses",
    "witnesses",
    "in_lattice",
    "iter_lattice",
    "iter_lattice_by_witnesses",
    "lattice",
    "lattice_bitset",
    "lattice_size",
    "proposition_2_8_split",
    "decide",
    "fd_closure",
    "find_uncovered",
    "find_uncovered_engine",
    "find_uncovered_sat",
    "implies_engine",
    "implies_fd",
    "implies_lattice",
    "implies_sat",
    "in_fd_fragment",
    "principal_ideal_function",
    "refute",
    "semantic_implies_over_ideals",
    "sparse_principal_ideal_function",
    "atom",
    "atoms",
    "decomp",
    "Proof",
    "check_proof",
    "derivation_size",
    "derive",
    "ImpliedConstraintOracle",
    "atomic_representation",
    "armstrong_database",
    "armstrong_function",
]
