"""Hypothesis profiles for the property tests.

``default`` keeps the tier-1 run short and reproducible: few examples, drawn
from a fixed seed.  ``ci`` explores more, with fresh random draws each run:

    PYTHONPATH=src python -m pytest tests/test_fuzz_*.py --hypothesis-profile ci
"""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    _COMMON = dict(deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    settings.register_profile("default", max_examples=20, derandomize=True, **_COMMON)
    settings.register_profile("ci", max_examples=400, print_blob=True, **_COMMON)
