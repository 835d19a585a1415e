"""Fixtures shared across test modules."""

import pytest

from test_acceptance import artifact_bundle


@pytest.fixture(scope="session")
def bundle():
    """One build of the criterion-10 artifact bundle (it runs a 100000-tick
    Ising machine), shared by the rerun check and the pinned digest."""
    return artifact_bundle()
