"""Hypothesis profiles: ``ci`` replays the same examples on every run.

Select one with HYPOTHESIS_PROFILE=ci; without the variable hypothesis
keeps its default profile.  The property tests skip without hypothesis.
"""

import os

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
