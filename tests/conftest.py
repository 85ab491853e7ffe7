"""Test-wide settings, so that a test run writes nothing into the working
tree: hypothesis keeps no example database, and its other caches (it stores
constants parsed from the source files) go to a temporary directory that is
removed when the run ends."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

settings.register_profile("no_database", database=None)
settings.load_profile("no_database")
