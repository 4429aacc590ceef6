"""Exact enumeration and cross-verification of Cayley permutations,
Burge matrices, matrices of linear orders, and the identities tying
their counts together.

Each module's ``__all__`` declares its public API; the package root
re-exports those lists, in layer order."""

from . import burge, identities, kernel, lomat, words
from .kernel import *
from .words import *
from .burge import *
from .lomat import *
from .identities import *

__all__ = [*kernel.__all__, *words.__all__, *burge.__all__, *lomat.__all__, *identities.__all__]

__version__ = "0.1.0"
