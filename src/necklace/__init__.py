"""Numerical toolkit for a ring-of-bubbles ansatz: trigonometric-sum
asymptotics, sector interaction kernels, nodal-set extraction, and the
constrained minimization of the reduced six-parameter energy.
"""
from .errors import (
    AccuracyError,
    DomainError,
    NearPoleWarning,
    NotFoundError,
    RegimeWarning,
    UnsupportedError,
)
from .geometry import Point3, SectorConfig
from .trigsums import (
    SumSpec,
    csc_asym,
    csc_full_sum,
    s1_contour,
    s_asym,
    sum_direct,
)
from .crown import (
    CrownParams,
    ProfileHandle,
    build_crown,
    psi_d1,
    psi_d11,
    q_mid_lower,
    u_bubble,
    u_star,
    u_star_profile,
)
from .nodal import NodalMesh, gradient_min_on_nodal, nodal_mesh, radial_nodal_root
from .kernels import (
    KernelReport,
    PlacedBubble,
    gamma_bb,
    gamma_direct,
    h0e,
    h0e_bb,
    kernel_grad,
    kernel_hess,
    place_bubble,
    t_a,
)
from .energy import (
    ReducedConfig,
    ReducedPoint,
    a_gamma,
    c0,
    c2,
    c_star,
    minimize_psi,
    psi_full,
    psi_leading,
)

__version__ = "0.1.0"
