"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` runs a fixed, larger
case set: derandomized, 200 examples a test unless a test sets its own
count, and no deadline."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
