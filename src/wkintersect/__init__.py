"""Exact computation of Witten-Kontsevich intersection numbers.

The closed-formula route (genus-independent coefficient tables, gated
determinants and weighted Kostka numbers) lives alongside an
independent Virasoro-recursion oracle; everything is exact rational
arithmetic end to end.
"""

from .rational import Rat, factorial, double_factorial_odd, gamma_half_ratio
from .partitions import dominates, enumerate_partitions, transpose
from .sympoly import (
    ELEMENTARY,
    MONOMIAL,
    SCHUR,
    SymPoly,
    inverse_kostka,
    kostka,
    power_sum_times_schur,
)
from .hop import HContext, barnes_constant, n_factor
from .pengine import DTable, direct_p, degree_rn, r_max, trace_shift_invariance
from .intersect import Correlator, a_gn, q_coeff, tau, w_gn, wn_det_truncated
from .oracle import (
    a_gn_oracle,
    closed_a0n,
    closed_a1n,
    series_reference,
    virasoro_tau,
)

__version__ = "0.1.0"

__all__ = [
    "Correlator",
    "DTable",
    "ELEMENTARY",
    "HContext",
    "MONOMIAL",
    "Rat",
    "SCHUR",
    "SymPoly",
    "a_gn",
    "a_gn_oracle",
    "barnes_constant",
    "closed_a0n",
    "closed_a1n",
    "degree_rn",
    "direct_p",
    "dominates",
    "double_factorial_odd",
    "enumerate_partitions",
    "factorial",
    "gamma_half_ratio",
    "inverse_kostka",
    "kostka",
    "n_factor",
    "power_sum_times_schur",
    "q_coeff",
    "r_max",
    "series_reference",
    "tau",
    "trace_shift_invariance",
    "transpose",
    "virasoro_tau",
    "w_gn",
    "wn_det_truncated",
]
