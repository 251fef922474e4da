"""Exact computation of Witten-Kontsevich intersection numbers.

The closed-formula route (genus-independent coefficient tables, 3-ribbon
chains in p_3 and weighted Kostka numbers) lives alongside an
independent Virasoro-recursion oracle; everything is exact rational
arithmetic end to end.
"""

from .rational import Rat
from .partitions import enumerate_partitions, transpose
from .sympoly import (
    ELEMENTARY,
    MONOMIAL,
    SCHUR,
    SymPoly,
    power_sum_times_schur,
)
from .hop import HContext, barnes_constant
from .pengine import DTable, direct_p, degree_rn, r_max
from .intersect import Correlator, a_gn, q_coeff, tau, w_gn
from .oracle import a_gn_oracle, series_reference, virasoro_tau

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
    "degree_rn",
    "direct_p",
    "enumerate_partitions",
    "power_sum_times_schur",
    "q_coeff",
    "r_max",
    "series_reference",
    "tau",
    "transpose",
    "virasoro_tau",
    "w_gn",
]
