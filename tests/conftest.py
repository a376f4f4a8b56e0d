"""Hypothesis profiles.

Local runs use hypothesis's defaults: fresh random examples on every run.  The
``ci`` profile, selected with HYPOTHESIS_PROFILE=ci, derandomizes the search,
so a failure repeats on every run of the same commit, and tries twice as many
examples where a test does not set its own count.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
