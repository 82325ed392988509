"""Symmetries, bi-Hamiltonian structures and ghost-free reformulations of the
fourth-order Pais-Uhlenbeck oscillator."""

from .core import (PhaseState, PoissonTensor, PuParams, QuadHamiltonian,
                   companion_field, flow_residual, hamiltonian_h1,
                   hamiltonian_h2, ostrogradsky_hamiltonian,
                   ostrogradsky_matrix, poisson_j1, poisson_j2, quad_bracket)
from .dynamics import (ClassicalSolution, LinearField, Potential,
                       PotentialField, Trajectory, conservation_report,
                       eval_solution, integrate, interaction_compatibility,
                       interaction_transform_constraint, structure_discovery)
from .hierarchy import (ChargeLadder, CombinedStructure, PdDecomposition,
                        charge_ladder, coefficients_on_h1h2, combine,
                        ladder_via_x3, next_charge, pd_decompose, pd_window,
                        pu_polynomial, x4_pair)
from .symmetry import (Generator, closed_form_flow, commutator, group_flow,
                       act_on_hamiltonian, solve_symmetries, standard_basis)
from .transform import (SmEmbedding, TransformSpec, XYState, build, forward,
                        flow_preserving_tensor, ghost_variant, inverse,
                        legendre, pullback_hamiltonian, pushforward_brackets,
                        sm_embedding, ta2_decomposition, ta2_form, ta2_window,
                        tb1_decomposition, tb1_form, tb1_window)

__version__ = "0.1.0"
