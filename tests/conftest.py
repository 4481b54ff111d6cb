"""Suite-wide settings.

Hypothesis properties draw their examples from a seed derived from each
test, not from a random one, and keep no example database, so every run of
the suite checks the same cases on any checkout. Per-test `@settings` still
set how many examples a property draws.
"""

from hypothesis import settings

settings.register_profile("ncrl_lab", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("ncrl_lab")
