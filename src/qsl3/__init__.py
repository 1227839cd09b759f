"""Exact canonical-basis computations for the modified quantized enveloping
algebra of type A2.

The package provides, bottom up: exact arithmetic in Z[v, v^-1] and
fraction-free linear algebra over it, quantum combinatorics, concrete
highest- and lowest-weight module realizations, tensor products with the
bar-semilinear involution, the canonical basis read off the involution's
triangular matrices, and the closed-form element catalog of the modified
algebra with its verification harness.
"""

from ._version import __version__
from .laurent import LaurentPoly, NotDivisible, vpow
from .linalg import Inconsistent
from .qcomb import (ki_binom_at, qvandermonde_check, qvandermonde_negative_check,
                    triple_transform_check, qbinom, qfact, qint)
from .labels import MonomialLabel, Weight, basis_labels, in_basis_set, weyl_dim
from .modules import (ModuleRealization, act_divided, build_highest_module,
                      build_lowest_module)
from .tensor import (PsiOperator, TensorSpace, build_psi, get_tensor_space,
                     set_cache_dir)
from .udot import (ALL_FAMILY_IDS, FamilyId, UdotExpr, UdotWord, bar_udot,
                   evaluate, evaluate_on, family_admissible, family_element,
                   index_swap, parse_word, sigma, word_labels)
from .canonical import (CanonicalElement, VerificationReport, canonical_basis,
                        sigma_closure_check, verify_family, verify_canonical,
                        verify_expr)
