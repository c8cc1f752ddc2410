"""Hypothesis settings and shared strategies of the generated
differential tests.

Tier-1 runs each property over a fixed, derandomized set of examples
with no shrink phase: a planted kernel bug then fails at its first
counterexample in seconds, where shrinking it took minutes and hundreds
of megabytes.  CI's deep run (``pytest --hypothesis-profile=deep``, the
profile ``conftest.py`` registers) draws many more examples at random
and shrinks what fails.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st

from repro.topology import Topology

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


@st.composite
def unit_disk_topologies(draw):
    """A small connected unit-disk network with its sink and source.

    Each node has a position and its own radio range; two nodes are
    linked when ``distance <= min(src.radio_range, dst.radio_range)``.
    The network is the sink's connected component, and the source is
    any other node of it.
    """
    nodes = draw(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.sampled_from((1.5, 2.5, 3.5))
            ),
            min_size=3,
            max_size=16,
            unique_by=lambda node: node[:2],
        )
    )
    sink = draw(st.integers(0, len(nodes) - 1))
    links = {
        (a, b)
        for a in range(len(nodes))
        for b in range(a + 1, len(nodes))
        if math.dist(nodes[a][:2], nodes[b][:2]) <= min(nodes[a][2], nodes[b][2])
    }
    reached, frontier = {sink}, [sink]
    while frontier:
        frontier = [
            m
            for n in frontier
            for m in range(len(nodes))
            if m not in reached and ((n, m) in links or (m, n) in links)
        ]
        reached.update(frontier)
    others = sorted(reached - {sink})
    if not others:
        return draw(st.nothing())  # an isolated sink is no network
    source = draw(st.sampled_from(others))
    edges = sorted((a, b) for a, b in links if a in reached)
    return Topology.from_edges(edges, sink=sink, source=source)
