"""Test-session setup shared by every test module."""

import warnings

# Where libcst is installed, hypothesis imports it (through
# hypothesis.extra._patching) to report a failing test, and the import
# raises mypy_extensions' TypedDict DeprecationWarning.  Under `-W error`
# that warning turns the failure report into a pytest INTERNALERROR, and
# neither an ini filterwarnings entry (the command line's filters win) nor
# a profile without the explain phase avoids the import.  Importing the
# module once here, with that warning ignored, leaves nothing to raise it
# later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis reports without it
        pass
