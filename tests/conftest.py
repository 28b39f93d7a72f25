"""Shared test settings: hypothesis runs derandomized, with no deadline and
no example database, so every run draws the same examples.  Property tests
set only `max_examples`."""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")
