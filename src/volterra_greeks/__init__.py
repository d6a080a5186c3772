"""Monte-Carlo Greeks for rough Volterra stochastic-volatility models.

Simulates exponential-Volterra (rough Bergomi style), mixed, and
Stein-Stein type volatility on a uniform grid and estimates price
sensitivities with Malliavin integration-by-parts weights, verified
against finite-difference and Black-Scholes oracles.
"""

from .greeks import (
    GREEK_KINDS,
    GreekEstimate,
    NumericalFailureError,
    OptionSpec,
    converge,
    estimate,
    estimate_many,
    payoff,
)
from .kernel import KernelSpec
from .models import (
    AlphaRFSV,
    AlphaSV,
    BlackScholes,
    MarketSpec,
    MixedAlphaRFSV,
    ModelSpec,
    PathBundle,
    RoughSteinStein,
    SteinStein,
    UnsupportedError,
    make_bundle,
)
from .oracles import BsGreeks, BumpSpec, bs_price_greeks, default_bump, fd_greek
from .paths import DriverIncrements, TimeGrid, gen_increments, volterra_path

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "KernelSpec",
    "TimeGrid",
    "DriverIncrements",
    "gen_increments",
    "volterra_path",
    "MarketSpec",
    "ModelSpec",
    "AlphaRFSV",
    "MixedAlphaRFSV",
    "RoughSteinStein",
    "AlphaSV",
    "SteinStein",
    "BlackScholes",
    "PathBundle",
    "make_bundle",
    "UnsupportedError",
    "OptionSpec",
    "GreekEstimate",
    "GREEK_KINDS",
    "NumericalFailureError",
    "payoff",
    "estimate",
    "estimate_many",
    "converge",
    "BsGreeks",
    "BumpSpec",
    "bs_price_greeks",
    "default_bump",
    "fd_greek",
]
