"""Fixtures shared across test modules, and the Hypothesis profiles."""

import os

import pytest
from hypothesis import settings

from test_acceptance import artifact_bundle

# HYPOTHESIS_PROFILE=deep runs every property whose @settings honour it
# (those CI's properties-deep job names) at 1000 examples; unset, the suite
# runs under Hypothesis' default profile
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def bundle():
    """One build of the criterion-10 artifact bundle (it runs a 100000-tick
    Ising machine), shared by the rerun check and the pinned digest."""
    return artifact_bundle()
