"""Exact computational workbench for Hall algebras of quivers over small
finite fields: isomorphism-class enumeration, Hall products and
coproducts, cuspidal elements, tube structure, and the counting calculus
(Kac polynomials, plethystic exponentials), all in exact arithmetic."""

from .config import Caps, DEFAULT_CAPS
from .counting import (IntPolynomial, PointCountTable, TruncSeries,
                       absolute_cuspidal_polys, closed_points_p1,
                       count_absolutely_indecomposable, count_indecomposables,
                       descent_prediction, interpolate_polynomial, mobius,
                       plethystic_exp, plethystic_log, point_table_from_tubes,
                       points_of_degree_dividing)
from .cuspidal import (CuspidalSpace, LinearFormL, NormalizedTubeCuspidal, Tube,
                       TubePermutation, cancellation_check, conjecture1_check,
                       conjecture2_check, cuspidal_space, cyclic_nilpotent_cuspidal,
                       delta_evaluation_identity, is_regular_primitive,
                       isotropic_support_check, kronecker_embedding, linear_form,
                       normalized_tube_cuspidal, one_loop_cuspidal_closed_form,
                       primitive_space, regular_comultiply, regular_cuspidal_space,
                       tube_decomposition, verify_kernel_theorem, verify_sigma_hopf,
                       xi_value)
from .errors import (CapExceeded, CertificateError, HallforgeError, SingularMatrix,
                     SizeMismatch)
from .gf import (GF, Mat, gaussian_binomial, gl_order, monic_irreducibles,
                 subspaces_of_dim)
from .hall import HallAlgebra, HallElement, QNum, TensorElement
from .quiver import (Quiver, QuiverType, classify_type, defect, dual_quiver,
                     euler_form, jordan, kronecker, cyclic_quiver,
                     support, support_is_connected, symmetrized_form)
from .oneloop import a_lambda, partitions_of
from .registry import IsoClass, IsoRegistry
from .reps import (Rep, direct_sum, dualize_rep, ext1_dim, hom_dim, hom_space,
                   is_indecomposable, is_nilpotent_rep, krull_schmidt,
                   simple_rep, zero_rep)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
