"""Squeezed-light generation via cascaded up/down conversion in a cavity.

A desk-scale simulator and parameter-inference toolkit: Gaussian
quadrature-state algebra, temperature-tuned phase matching, coupled-mode
cascade propagation, Kerr-cavity steady states and squeezing spectra, a
detection-chain model, and reproducible measurement scenarios.

The package exports each module's public names (its ``__all__``; every
exception class of ``errors``).
"""

from .cascade import *
from .cavity import *
from .detection import *
from .errors import *
from .phasematch import *
from .states import *

__version__ = "0.1.0"
