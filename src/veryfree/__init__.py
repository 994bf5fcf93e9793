"""Exact-arithmetic toolkit for very free degree-3 rational curves on
smooth cubic surfaces and hypersurfaces, in arbitrary characteristic."""

__version__ = "0.1.0"

from .fields import (FieldSpec, Scalar, UPoly, make_field, embed,
                     find_roots, join_field, parse_field_spec,
                     format_field_spec, QQ)
from .poly import (MultiPoly, BinaryForm, parse_poly, parse_binary_form,
                   partial_derivative, linear_substitute, compose_with_curve,
                   resultant_bin, gcd_bin, groebner_basis, is_unit_ideal)
from .sheafp1 import (MonadP1, SplittingType, validate_monad,
                      quotient_graded_dim, h0_twist, splitting_type,
                      is_very_free_splitting)
from .hypersurface import (Hypersurface, ProjPoint, Hyperplane, LineP3,
                           CubicSectionClass, is_smooth,
                           singular_points_scan, tangent_hyperplane,
                           plane_section, hyperplane_section,
                           classify_plane_cubic, lines_on_cubic_surface,
                           eckardt_points)
from .constructions import (standard_nodal_parametrization,
                            pullback_tangent, very_free,
                            verify_xi_eta, verify_cuspidal_delta,
                            six_point_diagonal, find_nodal_section,
                            build_very_free_curve, fermat_char2_report,
                            CurveOnX, TangentSectionNormalForm,
                            nodal_surface_form, normal_form_surface,
                            make_curve)
