"""monadcalc: exact ADHM-style monad calculus for framed sheaves on the
projective plane and its blowup.

All arithmetic is exact over the Gaussian rationals Q(i), eigenvalues
included: their roots are found with Gaussian-integer arithmetic alone.
Floating point gives only the roots of the optional approximate joint
spectrum (``eigen_mode="float"``, ``reduce --float``).
"""

from .blowup import (BlowupPoint, MonadDataBlowup, act2, blowup_defect,
                     evaluate_A_blowup, evaluate_B_blowup,
                     fiber_projection_check, symbolic_blowup_product, validate)
from .closure import (invariant_closure, is_nilpotent,
                      max_invariant_in_kernel, nilpotency_index)
from .eigen import (approx_joint_eigenvalue_pairs, char_poly,
                    commuting_reduce, eigenvalues, joint_eigenvalue_pairs,
                    joint_spectrum)
from .errors import (DimensionMismatch, DocumentError, FloatOverflow,
                     InfeasibleSpec, IntegrabilityViolation, InvalidPoint,
                     InvariantViolation, IrrationalSpectrum, MonadcalcError,
                     NonCommuting, OverlapViolation, PointOnExceptionalLine,
                     SingularGroupElement, SurjectivityViolation)
from .field import QI, qi
from .generate import GenSpec, generate
from .matrix import (Matrix, Subspace, column_space, hstack, inverse,
                     kernel_basis, rank, rref, solve, vstack)
from .p2 import (DUPoint, MonadDataP2, ProjectivePoint, act,
                 canonical_reduction, evaluate_A, evaluate_B,
                 fiber_dimension, integrability_defect,
                 is_concentrated_at_origin, is_nondegenerate, max_c_special,
                 min_b_special, symbolic_monad_product, validate_p2)
from .stratify import (ChargeLabel, StratumReport, charge_label, classify_s0,
                       classify_s0_oracle, pushforward)
from .trivialize import (ChartPoint, NotConcentrated, frame_matrix,
                         section_s1, section_s2, transition_xi,
                         verify_trivialization)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
