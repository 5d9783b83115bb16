"""Short-range attractive 1D potentials V(x) = -s*shape(x).

The strength s is factored out so that it can serve as the expansion
parameter of the weak-coupling series; shape(x) is nonnegative, even for
the built-in families, and decays fast enough that all moment and chain
integrals used elsewhere converge.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: tail bound, relative to the peak, that fixes the support radius
_EPS_TAIL = 1e-12


@dataclass(frozen=True, eq=False)
class Potential:
    """A strength-factored attractive well, compared and hashed by identity.

    Args:
        kind: one of "square_well", "poschl_teller", "gaussian", "tabulated".
        s: nonnegative strength; V(x) = -s*shape(x).
        a: halfwidth of the square well (ignored by other kinds).
        sample_x: strictly increasing abscissas (tabulated kind only).
        sample_shape: nonnegative shape samples aligned with sample_x.
            A tabulated well holds read-only float copies of both, so
            the caller's arrays cannot change it.
    """

    kind: str
    s: float
    a: float = 1.0
    sample_x: np.ndarray | tuple = ()
    sample_shape: np.ndarray | tuple = ()

    def __post_init__(self):
        if self.kind not in ("square_well", "poschl_teller", "gaussian", "tabulated"):
            raise ValueError(f"unknown potential kind: {self.kind!r}")
        if not (self.s >= 0.0):
            raise ValueError("strength s must be nonnegative")
        if self.kind == "square_well" and not (0.0 < self.a < np.inf):
            raise ValueError("square well halfwidth must be positive and finite")
        if self.kind == "tabulated":
            xs = np.array(self.sample_x, dtype=float)
            vs = np.array(self.sample_shape, dtype=float)
            if xs.ndim != 1 or xs.size < 2 or xs.shape != vs.shape:
                raise ValueError("tabulated potential needs >= 2 aligned samples")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
                raise ValueError("tabulated samples must be finite")
            if not np.all(xs[1:] > xs[:-1]):  # np.diff would overflow on huge abscissas
                raise ValueError("tabulated abscissas must be strictly increasing")
            if np.any(vs < 0):
                raise ValueError("tabulated shape samples must be nonnegative")
            xs.setflags(write=False)
            vs.setflags(write=False)
            object.__setattr__(self, "sample_x", xs)
            object.__setattr__(self, "sample_shape", vs)

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def tabulated(sample_x, sample_values, s: float = 1.0) -> "Potential":
        """Build from (x, V) samples with V <= 0; shape = -V."""
        vs = np.asarray(sample_values, dtype=float)
        if np.any(vs > 0):
            raise ValueError("tabulated potential values must be <= 0")
        return Potential("tabulated", s, sample_x=sample_x, sample_shape=-vs)

    # ---- evaluation ------------------------------------------------------

    def shape(self, x):
        """Dimensionless well profile, >= 0, peak ~1 for built-in kinds."""
        x = np.asarray(x, dtype=float)
        if self.kind == "square_well":
            return np.where(np.abs(x) <= self.a, 1.0, 0.0)
        if self.kind == "poschl_teller":
            # sech^2 written via e^{-2|x|} so large |x| underflows to 0
            # instead of overflowing cosh
            t = np.exp(-2.0 * np.abs(x))
            return 4.0 * t / (1.0 + t) ** 2
        if self.kind == "gaussian":
            return np.exp(-x * x)
        return np.interp(x, self.sample_x, self.sample_shape, left=0.0, right=0.0)

    def evaluate(self, x):
        """V(x) = -s*shape(x) as a float array of the shape of x.

        A scalar x gives an np.float64, which is a float.
        """
        return -self.s * self.shape(x)

    def shape_max(self) -> float:
        """Peak of the shape function (attained at x=0 for built-ins)."""
        if self.kind == "tabulated":
            return float(np.max(self.sample_shape))
        return 1.0

    def is_even(self) -> bool:
        return self.kind != "tabulated"

    def support_radius(self) -> float:
        """First radius 5 * 2**k where the shape has decayed below _EPS_TAIL.

        Relative to the peak value. Every built-in shape decays, so the
        doubling ends: the square well at the first such radius above a.
        Tabulated potentials are compactly supported by construction and
        return their outermost abscissa.
        """
        if self.kind == "tabulated":
            return float(max(abs(self.sample_x[0]), abs(self.sample_x[-1])))
        radius = 5.0
        while float(self.shape(radius)) / self.shape_max() >= _EPS_TAIL:
            radius *= 2.0
        return radius


__all__ = ["Potential"]
