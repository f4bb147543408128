"""Shared pytest set-up for tests/.

Property tests run under a derandomized Hypothesis profile: every run draws
the same examples, so tier-1 stays deterministic, and there is no per-example
deadline, since timing on a shared machine is not what they test.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
