"""Exact-arithmetic toolkit for preferences over finite lotteries.

Lotteries are probability vectors with Fraction weights.  The package
elicits linear representations from indifference data, certifies
indifference of affine combinations step by step, constructs spanning
indifferent sets, and hunts for axiom violations over finite grids with
replayable witnesses.  The scans run in pure Python over integer
encodings: on level kernels for the built-in oracles, by a proof, a
coordinate threshold or a direct search, and on a direct search for any
other oracle, with the same first hits.

The public names are those of each module's ``__all__``.
"""

from .axioms import *
from .errors import *
from .geometry import *
from .grids import *
from .lotteries import *
from .oracles import *
from .rationals import *
from .representation import *

__version__ = "0.1.0"

__all__ = ["__version__", *axioms.__all__, *errors.__all__, *geometry.__all__,
           *grids.__all__, *lotteries.__all__, *oracles.__all__,
           *rationals.__all__, *representation.__all__]
