"""Test-suite settings: hypothesis draws the same examples on every run,
and a failure prints the blob that reproduces it."""

from hypothesis import settings

settings.register_profile("padicfourier", derandomize=True, print_blob=True)
settings.load_profile("padicfourier")
