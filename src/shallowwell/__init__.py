"""Bound-state energy of weak attractive 1D wells: series, oracles, resummation.

The package evaluates the weak-coupling expansion of the single
bound-state energy through sixth order from position-space kernel
integrals, and cross-checks it against a shooting/Wronskian solver, the
finite-regulator kernels of a delta well, Pade resummation and
variational bounds. Importing the package loads none of its modules;
import each from its own name (shallowwell.cli is the entry point).
"""

__version__ = "0.1.0"
