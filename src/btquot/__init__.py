"""Quotients of the Bruhat-Tits tree of SL2 over F_q((1/t)) by Hecke
congruence subgroups of GL2(F_q[t]): exact arithmetic, quotient graphs,
certified cusp counts against closed forms, and Bass-Serre amalgam data.
"""

from .algebra import (AlgebraError, FieldSpec, FieldElement, LaurentFragment,
                      ParseError, Polynomial, RationalFunction,
                      expand_at_infinity, parse_polynomial, parse_rational)
from .btree import (BallVertex, Matrix2, TreeError, act, canonicalize,
                    distance, distance_bfs, distance_invariant_factors)
from .hecke import (HeckeError, Level, ReductionResult, SizeError,
                    StabDescriptor, is_member, orbit_equivalent, parse_level,
                    reduce_vertex, stabilizer, stabilizer_brute_force)
from .formulas import (FormulaError, FormulaReport, PicardData,
                       PreconditionError, abelianization_verdict, alpha,
                       classifying_cusp_count, cusp_count, formula_report,
                       split_counts)
from .quotient import (BoundError, CuspDescriptor, OrbitClass, QuotientEdge,
                       QuotientError, QuotientGraph, build_quotient,
                       certify_cusps, classify_splitness, export)
from .presentation import (CuspGroupDescriptor, GraphOfGroups, Presentation,
                           PresentationError, PresentationInconsistency,
                           abelianization_of_line_amalgam,
                           amalgam_example_check, build_graph_of_groups,
                           emit_presentation, presentation_json,
                           presentation_text, smith_normal_form)

__version__ = "0.1.0"
