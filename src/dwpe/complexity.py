"""Closed-form filter dimensions and the distributed-over-centralized
reduction factors (the betas).

Counting convention:

* The centralized accumulation is counted over the stacked observation of
  dimension M*L: per frame, M*L divisions apply the PSD reciprocal to the
  stacked vector and (M*L)^2 multiplications form its weighted outer product.
* The distributed per-node accumulation is counted over the augmented vector
  that carries the local reference column through the same pass, dimension
  L + (M-1) + 1 = L + M: per frame, L+M divisions and (L+M)^2
  multiplications. The solved dimension is one less, L + M - 1.
* The weight solve is modeled by the leading cubic term of Gaussian
  elimination.

Under this convention all three reduction factors are powers of the single
ratio (L+M)/(M*L): squared for multiplications, linear for divisions, cubed
for the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError


def centralized_filter_dimension(num_nodes: int, filter_order: int) -> int:
    """Stacked prediction-filter length of the centralized solve."""
    _check_ml(num_nodes, filter_order)
    return num_nodes * filter_order

def distributed_filter_dimension(num_nodes: int, filter_order: int) -> int:
    """Per-node prediction-filter length of the distributed solve:
    filter_order local taps plus one cross weight per neighbor."""
    _check_ml(num_nodes, filter_order)
    return filter_order + num_nodes - 1


def _check_ml(num_nodes: int, filter_order: int) -> None:
    if num_nodes < 1:
        raise InvalidInputError(f"num_nodes must be >= 1, got {num_nodes}")
    if filter_order < 1:
        raise InvalidInputError(f"filter_order must be >= 1, got {filter_order}")


@dataclass(frozen=True)
class BetaReport:
    """Distributed-over-centralized operation-count ratios for one setup."""

    num_nodes: int
    filter_order: int
    beta_mul: float
    beta_div: float
    beta_solve: float

    def __post_init__(self):
        for name in ("beta_mul", "beta_div", "beta_solve"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise InvalidInputError(f"{name}={value} outside (0, 1]")


def beta_report(num_nodes: int, filter_order: int) -> BetaReport:
    """Reduction factors of the distributed mode relative to centralized.

    Requires num_nodes >= 2 (single-node networks have nothing to reduce)
    and filter_order >= 3 so the distributed dimension is actually smaller.
    """
    if num_nodes < 2:
        raise InvalidInputError(
            f"beta_report needs num_nodes >= 2, got {num_nodes}"
        )
    if filter_order < 3:
        raise InvalidInputError(
            f"beta_report needs filter_order >= 3, got {filter_order}"
        )
    # the augmented per-node dimension: the solved one plus the reference column
    ratio = (distributed_filter_dimension(num_nodes, filter_order) + 1) / (
        centralized_filter_dimension(num_nodes, filter_order))
    return BetaReport(
        num_nodes=num_nodes,
        filter_order=filter_order,
        beta_mul=ratio**2,
        beta_div=ratio,
        beta_solve=ratio**3,
    )
