"""Hypothesis settings of the generated differential tests.

Tier-1 runs each property over a fixed, derandomized set of examples
with no shrink phase: a planted kernel bug then fails at its first
counterexample in seconds, where shrinking it took minutes and hundreds
of megabytes.  CI's deep run (``pytest --hypothesis-profile=deep``, the
profile ``conftest.py`` registers) draws many more examples at random
and shrinks what fails.
"""

from __future__ import annotations

from hypothesis import HealthCheck, Phase, settings

#: Every phase but shrinking.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def differential_settings(max_examples: int) -> settings:
    """``max_examples`` derandomized examples without shrinking, or the
    deep profile's settings while that profile is loaded."""
    quiet = [HealthCheck.function_scoped_fixture]
    if settings.default is settings.get_profile("deep"):
        return settings(suppress_health_check=quiet)
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        phases=NO_SHRINK,
        suppress_health_check=quiet,
    )
