"""Every hypothesis test draws the same examples on every run (derandomize),
with no deadline, since a first call pays for caches and imports, and with no
example database left in the working tree.

``talenti_profile`` is the tests' one-bubble profile: u_bubble, positive
everywhere, as the one bubble at the origin with c = 1."""
import numpy as np
from hypothesis import settings

from necklace.crown import TALENTI_AMP, ProfileHandle, _read_only, _u_bubble

settings.register_profile("necklace", derandomize=True, deadline=None, database=None)
settings.load_profile("necklace")

_TALENTI_BUBBLES = _read_only(np.zeros((1, 3)), np.ones(1), np.array([TALENTI_AMP]))


def talenti_profile() -> ProfileHandle:
    return ProfileHandle(fn=_u_bubble, bubbles=_TALENTI_BUBBLES)
