"""Checks that run around every test."""
import gc

import pytest

from shellprop import graph


@pytest.fixture(autouse=True)
def nothing_left_held():
    """Fail the test that leaves bytes held (``graph.hold``) once its
    objects are freed: a hold that an exception path or an abandoned
    generator never ends."""
    yield
    gc.collect()
    assert graph._held() == 0, f"{graph._held()} bytes still held after the test"
