"""Local intersection of a curve germ with the smooth branch curve."""

from __future__ import annotations

from .cluster import BranchJet
from .series import AtLeast, BiSeries

__all__ = ["local_intersection"]


def local_intersection(curve: BiSeries, branch: BranchJet) -> "int | AtLeast":
    """Local intersection number of the curve with the branch {y = g(x)}.

    For a smooth branch this is the x-order of the curve's equation evaluated
    along the graph. AtLeast(precision) means the curve vanishes on the whole
    tracked jet of the branch.
    """
    return curve.substitute_y(branch.g).ord()
