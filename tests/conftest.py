"""Hypothesis profiles of the suite.

``--hypothesis-profile=ci`` raises the example budget tenfold. Property
tests that size themselves from ``settings.default.max_examples`` scale
with it; CI runs the window-build parity test, the BLP move-count
oracle and the LP front-end identity tests (against ``linprog``, and
one instance per region against a fresh ``milp`` call) under it.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1_000)
