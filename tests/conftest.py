"""Hypothesis profiles.

`tier1` (the default) draws the same examples on every run and machine and
keeps no example database, so the suite's verdict depends only on the
committed files; draws worth keeping are pinned as `@example`s. `explore`
keeps hypothesis' random search and local example database:

    python3 -m pytest --hypothesis-profile=explore
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile("tier1")
