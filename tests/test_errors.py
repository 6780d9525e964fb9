"""The input checks, counted, real and typed, and every entry point that
states its parameters through them: any value either passes the check or is
a DomainError, never a TypeError, OverflowError, IndexError or
AttributeError, and a NumPy integer acts as the equal int."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import necklace
from necklace.crown import (CrownParams, ProfileHandle, build_crown, psi_d1, q_mid_lower,
                           u_star, u_star_profile)
from necklace.energy import (ReducedConfig, ReducedPoint, a_gamma, c0, c2, c_star,
                             check_full_mode, eps_star, minimize_psi, psi_full, psi_leading)
from necklace.errors import AccuracyError, DomainError, UnsupportedError, counted, real, typed
from necklace.geometry import K_MAX, Point3, SectorConfig
from necklace.kernels import (PlacedBubble, _check_w_sums, full_kernels, gamma_bb,
                              gamma_direct, h0e, h0e_bb, kernel_grad, kernel_hess,
                              place_bubble, s_hat, t_a)
from necklace.nodal import NodalMesh, gradient_min_on_nodal, nodal_mesh, radial_nodal_root
from necklace.trigsums import (N_MAX, SumSpec, csc_asym, csc_full_sum, s1_contour, s_asym,
                               sum_direct)

from conftest import talenti_profile

_PARAMS = build_crown(16)
_PROFILE = u_star_profile(_PARAMS)


class _Reached(Exception):
    """Raised by the profile below: the call got past its checks."""


def _reach(_arr):
    raise _Reached


# a field that stops the call the first time it is evaluated, with one bubble
# of amplitude 0, which certifies no sign: nodal_mesh evaluates its first slab
_STOP = ProfileHandle(fn=_reach, bubbles=(np.zeros((1, 3)), np.ones(1), np.zeros(1)))


def _core_at_origin(z):
    r2 = np.sum(np.asarray(z) ** 2, axis=-1)
    return 1.0 / np.sqrt(0.25 + r2) - 2.0 / np.sqrt(1.0 + r2)


# two bubbles at the origin that cancel there, one of them a core (c < 1)
_CORE_AT_ORIGIN = ProfileHandle(fn=_core_at_origin, bubbles=(
    np.zeros((2, 3)), np.array([0.25, 1.0]), np.array([1.0, -2.0])))


def _placed(field, v):
    kw = dict(eps=1e-4, a=0.0, q_hat=1.0, w_abs=1.0, alpha_w=0.02, b_abs=0.97,
              alpha_b=0.01, beta_hat=0.02)
    if field == "alpha_w":
        kw["beta_hat"] = v
    return PlacedBubble(**{**kw, field: v})


def _place(field, v):
    kw = dict(eps=1e-4, a=0.0, b_abs=0.97, alpha_b=0.01, beta_hat=0.02)
    return place_bubble(**{**kw, field: v}, profile=_PROFILE, xi=_PARAMS.xi[0])


def _reduced(field, v):
    kw = dict(K=64, lam=1.0, gnorm=1.0, cstar=1.0, delta=0.1)
    return ReducedConfig(**{**kw, field: v})


def _reduced_point(field, v):
    kw = dict(eps=1e-3, a=0.0, d=0.05, alpha_b=0.0, alpha_w=0.0)
    return ReducedPoint(**{**kw, field: v})


#: each site that takes a counted or a real parameter, as a call of the value
COUNTED = {
    "SectorConfig.K": SectorConfig,
    "CrownParams.m": CrownParams,
    "build_crown.m": build_crown,
    "SumSpec.k": lambda v: SumSpec("alt", v, 64, 0.5),
    "SumSpec.n": lambda v: SumSpec("alt", 1, v, 0.5),
    "s1_contour.n": lambda v: s1_contour(v, 0.5),
    "s_asym.k": lambda v: s_asym(v, 64, 0.5),
    "s_asym.n": lambda v: s_asym(1, v, 0.5),
    "csc_asym.k": lambda v: csc_asym("odd", v, 64),
    "csc_asym.n": lambda v: csc_asym("odd", 3, v),
    "csc_full_sum.m": csc_full_sum,
    "nodal_mesh.resolution": lambda v: nodal_mesh(_PARAMS, _STOP, 2.5, v),
    "radial_nodal_root.j": lambda v: radial_nodal_root(_PARAMS, _STOP, v, (-1.0, 0.0, 0.0)),
    "ReducedConfig.K": lambda v: _reduced("K", v),
    "a_gamma.K": a_gamma,
    "c0.K": lambda v: c0(v, 0.5),
    "c2.K": lambda v: c2(v, 0.5),
}
REAL = {
    "SumSpec.x": lambda v: SumSpec("alt", 1, 64, v),
    "s1_contour.x": lambda v: s1_contour(64, v),
    "s_asym.x": lambda v: s_asym(1, 64, v),
    "nodal_mesh.bbox": lambda v: nodal_mesh(_PARAMS, _STOP, v, 16),
    "c_star.scale": lambda v: c_star(_STOP, Point3(0.5, 0.0, 0.0), v),
    **{f"ReducedConfig.{f}": (lambda v, f=f: _reduced(f, v))
       for f in ("lam", "gnorm", "cstar", "delta")},
    **{f"ReducedPoint.{f}": (lambda v, f=f: _reduced_point(f, v))
       for f in ("eps", "a", "d", "alpha_b", "alpha_w")},
    "Point3.z1": lambda v: Point3(v, 0.0, 0.0),
    "Point3.z2": lambda v: Point3(0.0, v, 0.0),
    "Point3.z3": lambda v: Point3(0.0, 0.0, v),
    **{f"PlacedBubble.{f}": (lambda v, f=f: _placed(f, v))
       for f in ("eps", "a", "q_hat", "w_abs", "alpha_w", "b_abs", "alpha_b",
                 "beta_hat", "theta_star")},
    "_check_w_sums.gnorm": lambda v: _check_w_sums(64, v, 0.97, 0.01),
    "full_kernels.gnorm": lambda v: full_kernels(64, v, 0.97, 0.01, 0.02),
    "full_kernels.alpha_w": lambda v: full_kernels(64, 1.0, 0.97, 0.01, v),
    "eps_star.d": lambda v: eps_star(_CFG, v),
    "c0.d": lambda v: c0(64, v),
    "c2.d": lambda v: c2(64, v),
    **{f"place_bubble.{f}": (lambda v, f=f: _place(f, v))
       for f in ("eps", "a", "b_abs", "alpha_b", "beta_hat")},
}

_XI = _PARAMS.xi[0]
_MESH = nodal_mesh(_PARAMS, _PROFILE, 2.5, 16)
_PLACED = place_bubble(1e-4, 0.0, 0.97, 0.01, 0.02, _PROFILE, _XI)
_IN_PLANE = Point3(0.9, 0.0, 0.0)
_CFG = ReducedConfig(64, 1.0, 1.0, 1.0)
_POINT = ReducedPoint(eps=1e-3, a=0.0, d=0.05, alpha_b=0.0, alpha_w=0.0)
_SPEC = SumSpec("alt", 1, 64, 0.5)
#: each parameter that takes an instance of one type, as (the type, a call
#: of the value)
TYPED = {
    "gradient_min_on_nodal.mesh": (NodalMesh, lambda v: gradient_min_on_nodal(v, _PROFILE)),
    "gradient_min_on_nodal.profile": (ProfileHandle, lambda v: gradient_min_on_nodal(_MESH, v)),
    "nodal_mesh.profile": (ProfileHandle, lambda v: nodal_mesh(_PARAMS, v, 2.5, 16)),
    "radial_nodal_root.p": (CrownParams,
                            lambda v: radial_nodal_root(v, _STOP, 0, (1.0, 0.0, 0.0))),
    "radial_nodal_root.profile": (ProfileHandle,
                                  lambda v: radial_nodal_root(_PARAMS, v, 0, (1.0, 0.0, 0.0))),
    "c_star.profile": (ProfileHandle, lambda v: c_star(v, _XI)),
    "place_bubble.profile": (ProfileHandle,
                             lambda v: place_bubble(1e-4, 0.0, 0.97, 0.01, 0.02, v, _XI)),
    "u_star.p": (CrownParams, lambda v: u_star(np.zeros((2, 3)), v)),
    "psi_d1.p": (CrownParams, lambda v: psi_d1(np.full((2, 3), 0.3), v)),
    "q_mid_lower.p": (CrownParams, q_mid_lower),
    "u_star_profile.p": (CrownParams, u_star_profile),
    "gamma_bb.cfg": (SectorConfig, lambda v: gamma_bb(_IN_PLANE, v)),
    "h0e_bb.cfg": (SectorConfig, lambda v: h0e_bb(_IN_PLANE, v)),
    "gamma_direct.cfg": (SectorConfig, lambda v: gamma_direct(_IN_PLANE, _IN_PLANE, v)),
    "h0e.cfg": (SectorConfig, lambda v: h0e(_IN_PLANE, _IN_PLANE, v)),
    "t_a.A": (PlacedBubble, lambda v: t_a(_IN_PLANE, v, SectorConfig(8))),
    "t_a.cfg": (SectorConfig, lambda v: t_a(_IN_PLANE, _PLACED, v)),
    "kernel_grad.A": (PlacedBubble, lambda v: kernel_grad("gamma", "z", v, SectorConfig(8))),
    "kernel_grad.cfg": (SectorConfig, lambda v: kernel_grad("gamma", "z", _PLACED, v)),
    "kernel_hess.A": (PlacedBubble, lambda v: kernel_hess("gamma", v, SectorConfig(8))),
    "kernel_hess.cfg": (SectorConfig, lambda v: kernel_hess("gamma", _PLACED, v)),
    "csc_asym.variant": (str, lambda v: csc_asym(v, 1, 8)),
    "sum_direct.spec": (SumSpec, sum_direct),
    "psi_full.A": (ReducedPoint, lambda v: psi_full(v, _CFG)),
    "psi_full.cfg": (ReducedConfig, lambda v: psi_full(_POINT, v)),
    "psi_leading.A": (ReducedPoint, lambda v: psi_leading(v, _CFG)),
    "psi_leading.cfg": (ReducedConfig, lambda v: psi_leading(_POINT, v)),
    "minimize_psi.cfg": (ReducedConfig, minimize_psi),
    "eps_star.cfg": (ReducedConfig, lambda v: eps_star(v, 0.1)),
    "check_full_mode.cfg": (ReducedConfig, check_full_mode),
}

_POINTS = "takes points, which _as_array checks (test_rejected_calls)"
_RECORD = "a result record that the package builds, with unchecked fields"
#: per public callable of necklace, the rows above that state its counted,
#: real and typed parameters, or why it has none
EXPORTS = {
    **{name: "an exception or warning class" for name in (
        "AccuracyError", "DomainError", "NearPoleWarning", "NotFoundError",
        "RegimeWarning", "UnsupportedError")},
    "Point3": ("Point3.z1", "Point3.z2", "Point3.z3"),
    "SectorConfig": ("SectorConfig.K",),
    "SumSpec": ("SumSpec.k", "SumSpec.n", "SumSpec.x"),
    "csc_asym": ("csc_asym.k", "csc_asym.n", "csc_asym.variant"),
    "csc_full_sum": ("csc_full_sum.m",),
    "s1_contour": ("s1_contour.n", "s1_contour.x"),
    "s_asym": ("s_asym.k", "s_asym.n", "s_asym.x"),
    "sum_direct": ("sum_direct.spec",),
    "CrownParams": ("CrownParams.m",),
    "ProfileHandle": "takes a field and its bubble arrays (tests/test_crown.py)",
    "build_crown": ("build_crown.m",),
    "psi_d1": ("psi_d1.p",),
    "psi_d11": _POINTS,
    "u_bubble": _POINTS,
    "u_star": ("u_star.p",),
    "q_mid_lower": ("q_mid_lower.p",),
    "u_star_profile": ("u_star_profile.p",),
    "NodalMesh": _RECORD,
    "gradient_min_on_nodal": ("gradient_min_on_nodal.mesh", "gradient_min_on_nodal.profile"),
    "nodal_mesh": ("nodal_mesh.resolution", "nodal_mesh.bbox", "nodal_mesh.profile"),
    "radial_nodal_root": ("radial_nodal_root.j", "radial_nodal_root.p",
                          "radial_nodal_root.profile"),
    "KernelReport": _RECORD,
    "PlacedBubble": tuple(f"PlacedBubble.{f}" for f in (
        "eps", "a", "q_hat", "w_abs", "alpha_w", "b_abs", "alpha_b", "beta_hat",
        "theta_star")),
    **{name: (f"{name}.cfg",) for name in ("gamma_bb", "gamma_direct", "h0e", "h0e_bb")},
    **{name: (f"{name}.A", f"{name}.cfg") for name in ("kernel_grad", "kernel_hess", "t_a")},
    "place_bubble": tuple(f"place_bubble.{f}" for f in (
        "eps", "a", "b_abs", "alpha_b", "beta_hat", "profile")),
    "ReducedConfig": tuple(f"ReducedConfig.{f}" for f in (
        "K", "lam", "gnorm", "cstar", "delta")),
    "ReducedPoint": tuple(f"ReducedPoint.{f}" for f in (
        "eps", "a", "d", "alpha_b", "alpha_w")),
    "a_gamma": ("a_gamma.K",),
    "c0": ("c0.K", "c0.d"),
    "c2": ("c2.K", "c2.d"),
    "c_star": ("c_star.scale", "c_star.profile"),
    "minimize_psi": ("minimize_psi.cfg",),
    **{name: (f"{name}.A", f"{name}.cfg") for name in ("psi_full", "psi_leading")},
}

_NUMPY_INTS = st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint16,
                               np.uint64]).flatmap(lambda t: st.one_of(
    st.integers(0, 70), st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max))).map(t))

VALUES = st.one_of(
    st.integers(-10**400, 10**400),
    st.integers(-100, 2 * N_MAX + 2),
    _NUMPY_INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-100, 100).map(float),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([np.bool_(True), np.float64(64.0), np.float32(0.5), None,
                     math.nan, math.inf, -math.inf, 10**400, -10**400, 1.5, [], {}, [64]]),
)


def _outcome(call, v):
    """What the call does with v: ("value", repr) or ("raised", type, message)
    for the errors that may follow the checks; a DomainError is ("domain",
    message).  Any other error, or a RuntimeWarning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)
        try:
            return ("value", repr(call(v)))
        except DomainError as exc:
            return ("domain", str(exc))
        except (_Reached, AccuracyError, UnsupportedError) as exc:
            return ("raised", type(exc).__name__, str(exc))


def _admissible(site, v):
    """Whether v is of the site's kind: a Python or NumPy integer for a
    counted parameter, a real number with a finite float for a real one,
    and never a bool."""
    if isinstance(v, (bool, np.bool_)):
        return False
    if site in COUNTED:
        return isinstance(v, (int, np.integer))
    try:
        return isinstance(v, (int, float, np.integer, np.floating)) and math.isfinite(v)
    except OverflowError:
        return False


def test_every_export_has_an_entry():
    # a new public callable of necklace fails here until EXPORTS names the
    # rows that check its counted, real and typed parameters, or why it has
    # none
    public = {name for name in dir(necklace)
              if not name.startswith("_") and callable(getattr(necklace, name))}
    assert set(EXPORTS) == public
    for name, entry in EXPORTS.items():
        rows = {row for row in [*COUNTED, *REAL, *TYPED] if row.split(".")[0] == name}
        if isinstance(entry, tuple):
            assert set(entry) == rows and len(entry) == len(rows), name
        else:
            assert isinstance(entry, str) and not rows, name


@pytest.mark.parametrize("site", [*COUNTED, *REAL])
@settings(max_examples=60)
@given(v=VALUES)
def test_every_site_returns_or_raises_domain_error(site, v):
    call = {**COUNTED, **REAL}[site]
    got = _outcome(call, v)
    if not _admissible(site, v):
        assert got[0] == "domain", got
    if isinstance(v, np.integer):
        # the same bits, error or admitted state as the equal int
        assert got == _outcome(call, int(v))


#: values of many types, one of each kind that a typed parameter takes
_OBJECTS = [None, 64, 1.5, True, "gamma", [], (0.5, 0.0, 0.0), {}, np.zeros(3),
            Point3(0.5, 0.0, 0.0), _PARAMS, _PROFILE, _MESH, _PLACED, SectorConfig(8), _reach,
            _CFG, _POINT, _SPEC]


@pytest.mark.parametrize("site", TYPED)
def test_typed_parameters_take_only_their_type(site):
    # a value that is no instance of the parameter's type is a DomainError,
    # with no RuntimeWarning, where these calls raised TypeError or
    # AttributeError
    kind, call = TYPED[site]
    for v in _OBJECTS:
        if not isinstance(v, kind):
            got = _outcome(call, v)
            assert got[0] == "domain" and f"must be a {kind.__name__}" in got[1], (v, got)


def test_typed():
    x = Point3(0.5, 0.0, 0.0)
    assert typed("z", x, Point3) is x
    with pytest.raises(DomainError, match=r"^cfg must be a SectorConfig, got 64$"):
        typed("cfg", 64, SectorConfig)


@pytest.mark.parametrize("call", [
    lambda: SectorConfig(64.0),
    lambda: ReducedConfig(64.0, 1.0, 1.0, 1.0),
    lambda: SumSpec("alt", 1, 64.0, 0.5),
    lambda: SumSpec("alt", True, 64, 0.5),
    lambda: SumSpec("alt", 1, 64, 10**400),
    lambda: build_crown(16.0),
    lambda: nodal_mesh(_PARAMS, _STOP, 2.5, 16.5),
    lambda: radial_nodal_root(_PARAMS, _STOP, 0.5, (-1.0, 0.0, 0.0)),
    lambda: radial_nodal_root(_PARAMS, _STOP, True, (-1.0, 0.0, 0.0)),
    lambda: c_star(_STOP, Point3(0.5, 0.0, 0.0), True),
    lambda: c_star(_STOP, Point3(0.5, 0.0, 0.0), 10**400),
    lambda: s_asym(1, 64.0, 0.5),
    lambda: s_asym(3.0, 64, 0.5),
    lambda: s_asym(5, 10**70, 1e-60),
    lambda: csc_asym("odd", 5, 10**70),
    lambda: s1_contour(64, 10**400),
    lambda: csc_full_sum(2.5),
    lambda: csc_full_sum(10**9),
    lambda: ReducedConfig(64, 10**400, 1.0, 1.0),
    lambda: s_asym(3, 4, 1e-300),
    lambda: u_star([[1, 2, "x"]], _PARAMS),
    lambda: u_star([[1, 2, 3], [4, 5]], _PARAMS),
    lambda: u_star([1j, 0, 0], _PARAMS),
    lambda: Point3(10**400, 0, 0),
    lambda: Point3(True, 0, 0),
    lambda: Point3(0.5, "1", 0.0),
    lambda: Point3(0.5, 0.0, None),
    lambda: ReducedPoint(eps=1e-3, a=0.0, d=10**400, alpha_b=0.0, alpha_w=0.0),
    lambda: ReducedPoint(eps="1e-3", a=0.0, d=0.05, alpha_b=0.0, alpha_w=0.0),
    lambda: ReducedPoint(eps=1e-3, a=0.0, d=0.05, alpha_b=np.bool_(True), alpha_w=0.0),
    lambda: kernel_hess("bogus", _PLACED, SectorConfig(8)),
    # the Talenti bubble's gradient vanishes at its centre
    lambda: place_bubble(1e-4, 0.0, 0.97, 0.01, 0.02, talenti_profile(), Point3(0.0, 0.0, 0.0)),
    lambda: c_star(_CORE_AT_ORIGIN, Point3(0.0, 0.0, 0.0)),
    lambda: psi_d1(np.array([1.0, 0.0, 0.0]), _PARAMS),
    # where these raised AttributeError, TypeError, ValueError or returned nan
    lambda: eps_star(3, 0.1),
    lambda: eps_star(_CFG, "1"),
    lambda: eps_star(_CFG, 1e9),
    lambda: check_full_mode(3),
    lambda: full_kernels(64, 1.0, 0.9, 0.0, math.nan),
    lambda: full_kernels(64, 1.0, 0.9, 0.0, math.inf),
])
def test_rejected_calls(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("b_abs", [1e-107, 1e-300])
@pytest.mark.parametrize("call", [
    lambda b: _check_w_sums(64, 1.0, b, 0.0),
    lambda b: kernel_grad("gamma", "z", _placed("b_abs", b), SectorConfig(64)),
    lambda b: kernel_grad("h0e", "p", _placed("b_abs", b), SectorConfig(64)),
    lambda b: kernel_hess("h0e", _placed("b_abs", b), SectorConfig(64)),
], ids=["_check_w_sums", "kernel_grad-gamma", "kernel_grad-h0e", "kernel_hess"])
def test_tiny_b_is_a_domain_error(call, b_abs):
    # b's nearest tail image is about |b| away, and its cube underflows to 0
    with pytest.raises(DomainError):
        call(b_abs)


_B = Point3(0.9, 0.0, 0.0)
_BUBBLE = place_bubble(1e-4, 0.0, 0.97, 0.01, 0.02, u_star_profile(_PARAMS), _PARAMS.xi[0])


@pytest.mark.parametrize("bad", [(0.1, 0.0, 0.0), np.array([0.1, 0.0, 0.0]), None, 0.5,
                                 "0.1,0,0"], ids=["tuple", "array", "none", "float", "str"])
@pytest.mark.parametrize("call", [
    lambda z: gamma_direct(z, _B, SectorConfig(8)),
    lambda p: gamma_direct(_B, p, SectorConfig(8)),
    lambda z: h0e(z, _B, SectorConfig(8)),
    lambda p: h0e(_B, p, SectorConfig(8)),
    lambda b: gamma_bb(b, SectorConfig(8)),
    lambda b: h0e_bb(b, SectorConfig(8)),
    lambda z: t_a(z, _BUBBLE, SectorConfig(8)),
    lambda xi: place_bubble(1e-4, 0.0, 0.97, 0.01, 0.02, u_star_profile(_PARAMS), xi),
    lambda xi: c_star(_STOP, xi),
], ids=["gamma_direct.z", "gamma_direct.p", "h0e.z", "h0e.p", "gamma_bb", "h0e_bb", "t_a",
        "place_bubble", "c_star"])
def test_point_parameters_take_only_a_point3(call, bad):
    # a point parameter that is no Point3 is a DomainError, where it raised
    # AttributeError from the first method call
    with pytest.raises(DomainError, match="must be a Point3"):
        call(bad)


def test_point_values_are_floats():
    # a real number of any type is stored as its float, with the float's bits
    for v in (np.float64(0.1), np.float32(0.5), np.int64(3), 3, 2**70):
        got = Point3(v, v, v)
        assert all(type(c) is float and c == float(v) for c in (got.z1, got.z2, got.z3))
        point = ReducedPoint(eps=v, a=v, d=0.05, alpha_b=0.0, alpha_w=0.0)
        assert type(point.eps) is type(point.a) is float and point.eps == float(v)
    x = 0.25
    assert Point3(x, 0.0, 0.0).z1 is x


@pytest.mark.parametrize("site, v, message", [
    ("c0.K", 3, "K must be an even integer >= 4, got 3"),
    ("c0.K", np.int64(6), None),
    ("c2.K", 64.0, "K must be an even integer >= 4, got 64.0"),
    ("a_gamma.K", 2 * N_MAX, f"K must be at most {N_MAX}, got {2 * N_MAX}"),
    ("a_gamma.K", True, "K must be an even integer >= 4, got True"),
    ("c0.d", -0.5, "d must be > 0 with d^-5 finite, got -0.5"),
    ("c0.d", 0.0, "d must be > 0 with d^-5 finite, got 0.0"),
    ("c0.d", 1e-300, "d must be > 0 with d^-5 finite, got 1e-300"),
    ("c0.d", "0.5", "d must be a finite real number, got 0.5"),
    ("c2.d", -0.5, "d must be > 0 with d^-5 finite, got -0.5"),
    ("c2.d", math.nan, "d must be a finite real number, got nan"),
    ("c2.d", np.int64(-2), "d must be > 0 with d^-5 finite, got -2.0"),
])
def test_ring_coefficients_name_k_and_d(site, v, message):
    # c0, c2 and a_gamma name K and d in their DomainErrors, where they
    # gave SumSpec's "n must be ..." and "x must be ..."
    got = _outcome({**COUNTED, **REAL}[site], v)
    assert got[0] == "value" if message is None else got == ("domain", message)


@pytest.mark.parametrize("d", [1e77, 1e80, 1e200, 1.7e308])
def test_c2_at_a_huge_d_is_its_cosecant_constants(d):
    # the ring sums underflow to 0, where 3 (d^2 + d^4) S_5 was inf * 0 or
    # d^4 an OverflowError
    assert c2(64, d) == s_hat(1, 64) + s_hat(3, 64)


@pytest.mark.parametrize("arr", [[0.1, 0.2], ["abc", 0.0, 0.0], None, "abc", 1.5,
                                 [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2], [0.3]], [1j, 0.0, 0.0],
                                 list(range(1000))])
def test_point_from_array_asks_for_three_coordinates(arr):
    # where NumPy's reshape or float conversion raised a plain ValueError
    with pytest.raises(DomainError, match=r"^a point needs three finite coordinates, got ") \
            as info:
        Point3.from_array(arr)
    assert len(str(info.value)) <= 44 + 80


def test_point_from_array():
    got = Point3.from_array(np.array([[0.1], [-0.0], [2]]))
    assert (got.z1, got.z2, got.z3) == (0.1, 0.0, 2.0) and math.copysign(1.0, got.z2) < 0
    for bad, field in (([0.1, math.inf, 0.0], "z2"), ((math.nan, 0.0, 0.0), "z1")):
        with pytest.raises(DomainError, match=f"^{field} must be a finite real number"):
            Point3.from_array(bad)


def test_numpy_integers_are_ints():
    for K in (np.int64(64), np.uint16(64), np.int32(64)):
        cfg = SectorConfig(K)
        assert cfg == SectorConfig(64) and hash(cfg) == hash(SectorConfig(64))
        assert type(cfg.K) is int
    assert type(ReducedConfig(np.int64(65536), 1.0, 1.0, 1.0).K) is int
    assert type(build_crown(np.int64(16)).d) is float
    assert build_crown(np.int64(16)).d == build_crown(16).d
    spec = SumSpec("alt", np.int64(3), np.int32(64), np.float64(0.5))
    assert spec == SumSpec("alt", 3, 64, 0.5)
    assert [type(v) for v in (spec.k, spec.n, spec.x)] == [int, int, float]
    assert sum_direct(spec).hex() == sum_direct(SumSpec("alt", 3, 64, 0.5)).hex()
    assert s_asym(np.int64(3), np.int64(64), 0.5) == s_asym(3, 64, 0.5)


def test_counted():
    assert counted("K", np.int64(8), 4, 8, parity=0) == 8
    assert counted("k", 3, 1, 5, parity=1) == 3
    for v in (True, 6.0, "6", None, np.bool_(True), 5, 2):
        with pytest.raises(DomainError, match=r"^K must be an even integer >= 4, got "):
            counted("K", v, 4, 8, parity=0)
    with pytest.raises(DomainError, match=r"^k must be an odd integer >= 1, got 4$"):
        counted("k", 4, 1, 5, parity=1)
    with pytest.raises(DomainError, match=f"^K must be at most {K_MAX}, got {2 * K_MAX}$"):
        counted("K", 2 * K_MAX, 4, K_MAX, parity=0)


def test_real():
    for v, want in ((2, 2.0), (np.float32(0.5), 0.5), (np.int64(3), 3.0), (1e308, 1e308)):
        got = real("x", v)
        assert got == want and type(got) is float
    x = 0.25
    assert real("x", x) is x
    for v in (True, np.bool_(False), "1", None, math.nan, -math.inf, 10**400,
              np.array([1.0]), 1j):
        with pytest.raises(DomainError, match="^x must be a finite real number"):
            real("x", v)
