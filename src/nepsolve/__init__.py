"""Nonlinear eigenvalue problems on complex regions.

The pipeline: sample the region boundary, fit the problem's scalar terms by a
vector-valued rational minimax approximant (dual reweighting iteration),
linearize the resulting matrix polynomial into a structured pencil, and
extract in-region eigenpairs by a dense solve or by rational-filter subspace
iteration with structured shift-invert.
"""

from .basis import BreakdownError, VABasis, build_basis, eval_basis, leading_coeffs
from .cli import RunConfig, emit, run
from .eigensolve import (extract_nep_eigenpairs, pole_free_check, poly_roots,
                         solve_dense, solve_pencil_dense)
from .filters import (PoleHitError, SIFConfig, apply_filter, quadrature, scalar_filter,
                      shift_invert, sif)
from .lawson import (DegreeSpec, PoleEvaluationError, RankDeficiencyError,
                     RationalApproximant, SampleSet, dual_value, evaluate_approximant,
                     lawson, max_error)
from .pencil import (BlockLU, MatrixPolynomial, SingularShiftError,
                     StructuredPencil, assemble, block_lu, build_pencil,
                     error_bound, gram_matrix, verify_linearization)
from .problems import (ManifestError, Region, ScalarFunction, SplitFormNEP,
                       builtin_problem, constant, example1, exp_affine,
                       exp_quadratic, expm1_term, hadeler, load_manifest,
                       monomial, sample_boundary, save_manifest, sqrt_shift,
                       time_delay2)

__version__ = "0.1.0"
