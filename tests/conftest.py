import os
import sys
import warnings

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
