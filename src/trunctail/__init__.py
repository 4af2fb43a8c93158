"""Tail-index estimation for randomly right-truncated heavy-tailed data.

The package provides product-limit estimators of the observed joint
distribution, a weighted Hill-type estimator of the target tail index
gamma1, its asymptotic variance and confidence interval, Wiener-path
simulation of the limiting law, and a replicated Monte Carlo study
harness with a command-line front end.

Each module's __all__ is the one list of its public names; the package
re-exports them all.
"""

from . import (distributions, errors, limit_process, montecarlo,
               product_limit, tail_index, truncation)
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .limit_process import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .product_limit import *  # noqa: F401,F403
from .tail_index import *  # noqa: F401,F403
from .truncation import *  # noqa: F401,F403

__version__ = "0.2.0"

__all__ = [name for module in (distributions, errors, truncation, product_limit,
                               tail_index, limit_process, montecarlo)
           for name in module.__all__]
