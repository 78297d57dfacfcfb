"""Optimization methods with verified convergence behavior.

Subgradient methods (Polyak step, constant step, switching schemes),
smooth gradient descent under exact/inexact gradients, momentum and
accelerated methods, conditional gradient, projected SGD with averaging,
and kernel-smoothed zeroth-order search -- over a catalog of problems
with analytically known constants, plus a benchmark CLI that fits
empirical convergence rates.

``import optbench`` loads ``bench`` and ``core``.  The six method
modules load on first use: ``optbench.smooth`` and
``from optbench import smooth`` import theirs through the module
``__getattr__``, and the method registry imports a method's module when
the method is built or listed.
"""

import importlib

from . import bench, core

_METHOD_MODULES = ("frankwolfe", "momentum", "smooth", "stochastic", "subgrad", "zeroorder")

__all__ = ["bench", "core", *_METHOD_MODULES]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _METHOD_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
