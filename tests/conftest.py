"""Every hypothesis test draws the same examples on every run (derandomize),
with no deadline, since a first call pays for caches and imports, and with no
example database left in the working tree."""
from hypothesis import settings

settings.register_profile("necklace", derandomize=True, deadline=None, database=None)
settings.load_profile("necklace")
