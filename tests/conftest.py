"""Test-session setup shared by every test module."""

import os
import warnings

from hypothesis import HealthCheck, settings

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

# Under CI (any value of $CI) property tests run hypothesis' fixed
# derandomized examples and print a failure's reproduction blob, so a
# failure seen only in CI reproduces locally with `CI=true pytest`.
# Recent hypothesis versions load a built-in "ci" profile like this one by
# themselves; registering it keeps these settings on every version.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None,
                          database=None, suppress_health_check=[HealthCheck.too_slow])
if os.environ.get("CI"):
    settings.load_profile("ci")
