import os
import sys
import warnings

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# On a failing example the hypothesis pytest plugin imports libcst to print
# a patch, and that import warns, which the warnings-as-errors setting
# turns into an internal error ending the session.  Importing it here,
# with its warning ignored, keeps a failing property in any module an
# ordinary failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def digit_limit():
    """Python's int/str conversion digit limit, set to its default 4300
    for the test and restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
