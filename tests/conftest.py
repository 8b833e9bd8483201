"""Shared test configuration.

Property tests run under a derandomized Hypothesis profile, so every run of
the suite draws the same examples.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
