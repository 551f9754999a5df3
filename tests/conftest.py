from hypothesis import settings

# Property tests replay the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("flowspectra", derandomize=True, database=None,
                          deadline=None, max_examples=40)
settings.load_profile("flowspectra")
