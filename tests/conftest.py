"""Property tests run from a fixed, reproducible example sequence."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
