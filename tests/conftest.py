"""Test-session set-up shared by every test module.

Hypothesis keeps a directory of its own (the example database and the
constants it collects from the source under test).  It goes to a temporary
directory removed at exit, so a test run writes nothing into the working tree.
"""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="liepairs-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
