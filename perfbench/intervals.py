"""Interval tests that allow for rounding in the bounds' sums.

A collapsed interval's lb and ub are sums of different terms, so they can
differ in the last bits, and lb can come out above ub by about 1e-16
relative; ``solve`` then clamps the estimate to ub.  Which collapsed
intervals come out with lb == ub exactly depends on the order of the sums,
and so on the agent order.  The slack is the one ``AgentResult`` allows an
interval.
"""

REL_TOL = 1e-12


def _slack(x: float) -> float:
    return REL_TOL * max(1.0, abs(x))


def collapsed(lb: float | None, ub: float | None) -> bool:
    """Whether [lb, ub] is a single value up to rounding."""
    return lb is not None and ub is not None and abs(ub - lb) <= _slack(ub)


def contains(lb: float, ub: float, value: float) -> bool:
    return lb - _slack(value) <= value <= ub + _slack(value)
