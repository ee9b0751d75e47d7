"""Certified construction of plane birational maps whose rational-surface
lifts have positive entropy and a prescribed number of Siegel disks."""

__version__ = "0.1.0"

from .balls import ComplexBall, Verdict, ball_in_interval
from .certifier import (CertificationReport, FixedPointRecord, Location,
                        PointVerdict, certify_fixed_point)
from .cohomology import (ActionMatrix, delta_eigen_check, fixed_point_bound,
                         quad_action_matrix, spectral_data, tl_action_matrix)
from .cuspidal import certify_cuspidal, orbit_polynomial, s_value
from .geometry import ProjectivePoint
from .intpoly import (IntPolynomial, cyclotomic, irreducible_mod_p, resultant,
                      strip_cyclotomic)
from .pipeline import theorem1_pipeline
from .roots import ComplexPolynomial, RootSet, poly_roots
from .salem import SalemCertificate, is_salem
from .threelines import (OrbitData, ThreeLinesParams, ab_from_delta,
                         approx_parameters, construct_c0, construct_cstar,
                         fixed_points_tl, orbit_verify, salem_from_orbit)
