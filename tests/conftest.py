"""Suite-wide settings: hypothesis runs derandomized and without deadlines,
so property tests draw the same examples on every run and cannot fail on a
slow or drifting host; with fixed examples, no example database is kept."""

from hypothesis import settings

settings.register_profile("organstop", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("organstop")
