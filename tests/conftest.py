"""Every hypothesis test draws the same examples on every run (derandomize),
with no deadline, since a first call pays for caches and imports, and with no
example database left in the working tree.

``talenti_profile`` is the tests' one-bubble profile: u_bubble, positive
everywhere, as the one bubble at the origin with c = 1.  ``bubble_derivs_one``
is the single-point form of ``crown._bubble_derivs``, kept as the oracle of
the stacked one."""
import numpy as np
from hypothesis import settings

from necklace.crown import _EYE, TALENTI_AMP, ProfileHandle, _read_only, _u_bubble

settings.register_profile("necklace", derandomize=True, deadline=None, database=None)
settings.load_profile("necklace")

_TALENTI_BUBBLES = _read_only(np.zeros((1, 3)), np.ones(1), np.array([TALENTI_AMP]))


def talenti_profile() -> ProfileHandle:
    return ProfileHandle(fn=_u_bubble, bubbles=_TALENTI_BUBBLES)


def bubble_derivs_one(z, bubbles):
    """u, g, H and T[g] of a bubble sum at the one (3,) point z, as the
    package computed them point by point: ``crown._bubble_derivs`` of a
    stack must give each point these bits."""
    x, c, amp = bubbles
    r = z - x
    s = c + np.einsum("ij,ij->i", r, r)
    a1 = amp / np.sqrt(s)
    a3 = a1 / s
    a5 = a3 / s
    a7 = a5 / s
    grad = -(a3 @ r)
    rr = r[:, :, None] * r[:, None, :]
    hess = 3.0 * np.einsum("i,ijk->jk", a5, rr) - a3.sum() * _EYE
    rg = r @ grad
    w = a5 @ r
    tg = (3.0 * ((a5 @ rg) * _EYE + np.outer(w, grad) + np.outer(grad, w))
          - 15.0 * np.einsum("i,ijk->jk", a7 * rg, rr))
    return float(a1.sum()), grad, hess, tg
