"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Derandomized: the same examples on every run, so a failure reproduces and
# a slow moment on a shared machine cannot turn into a deadline failure.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
