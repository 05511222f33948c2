"""Coefficient sequences on integer boxes and the smooth counting weight.

A CoefficientSequence holds complex values a(n) for n in [-radius, radius]^d.
A SmoothWeight is the product sequence omega(n) = eta(n/N) with eta the
tensor power of the shared smooth cutoff: omega = 1 on [-N,N]^d, supported in
(-2N, 2N)^d.
A sequence may declare itself a product a(n) = prod_i a_i(n_i) through
`factors`; given alone, they define the values, which are built once.
"""

from __future__ import annotations

from functools import reduce
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from .bump import bump

__all__ = [
    "CoefficientSequence",
    "SmoothWeight",
    "ones_sequence",
    "delta_sequence",
    "diagonal_extremizer",
    "random_unit_sequence",
    "make_sequence",
    "save_sequence",
    "load_sequence",
]


class _Fresh(np.ndarray):
    """A complex128 C array that this module made for one sequence: the
    sequence takes it over instead of copying it."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    if type(arr) is _Fresh:
        v = arr.view(np.ndarray)
    else:  # a copy, so that the caller's own array stays writable
        v = np.array(arr, dtype=np.complex128, order="C")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Values a(n) on [-radius, radius]^dim, index n + radius.

    `factors`, when given, are dim 1-D arrays of length 2*radius+1 whose outer
    product is `values`; the field engine then evaluates F as a product of
    1-D sums on diagonal forms. With `values` None the factors define them,
    built once; given both, the outer product must equal `values` exactly.
    Equality and hashing are by identity, so a sequence can key a dict or
    sit in a set.
    """

    dim: int
    radius: int
    values: np.ndarray | None = field(repr=False)
    label: str = ""
    factors: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim < 1 or self.radius < 0:
            raise ValueError("dim must be >= 1 and radius >= 0")
        shape = (2 * self.radius + 1,) * self.dim
        if self.values is not None:
            arr = _read_only(self.values)
            if arr.shape != shape:
                raise ValueError(f"values shape {arr.shape} != expected {shape}")
            object.__setattr__(self, "values", arr)
        elif self.factors is None:
            raise ValueError("values may be None only when factors are given")
        if self.factors is None:
            return
        facs = tuple(_read_only(f) for f in self.factors)
        if len(facs) != self.dim or any(f.shape != shape[:1] for f in facs):
            raise ValueError(
                f"factors must be {self.dim} arrays of shape {shape[:1]}"
            )
        object.__setattr__(self, "factors", facs)
        if self.values is None:  # built once, with nothing to check
            object.__setattr__(self, "values", reduce(np.multiply.outer, facs))
            self.values.setflags(write=False)
        elif not np.array_equal(reduce(np.multiply.outer, facs), self.values):
            raise ValueError("outer product of the factors != values")

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.values.ravel()))

    @property
    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum())

    def normalized(self) -> "CoefficientSequence":
        nrm = self.l2_norm
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero sequence")
        if self.factors is None:
            unit = (self.values / nrm).view(_Fresh)
            return CoefficientSequence(self.dim, self.radius, unit, self.label)
        facs = (self.factors[0] / nrm,) + self.factors[1:]
        return CoefficientSequence(self.dim, self.radius, None, self.label, facs)

    def __getitem__(self, n: Sequence[int]) -> complex:
        """a(n), which is 0 off the box [-radius, radius]^dim."""
        if len(n) != self.dim:
            raise ValueError(f"index must have length {self.dim}, got {len(n)}")
        idx = tuple(int(x) + self.radius for x in n)
        inside = all(0 <= i <= 2 * self.radius for i in idx)
        return complex(self.values[idx]) if inside else 0j


class SmoothWeight(CoefficientSequence):
    """omega(n) = prod_i eta1(n_i / N): the product sequence of radius 2N-1
    whose factors are the 1-d profile, declared at construction."""

    def __init__(self, dim: int, N: int):
        if dim < 1 or N < 1:
            raise ValueError("dim and N must be positive")
        factors = (bump(np.arange(1 - 2 * N, 2 * N) / N),) * dim
        super().__init__(dim, 2 * N - 1, None, "weight", factors)

    def __repr__(self) -> str:
        return f"SmoothWeight(dim={self.dim}, N={self.N})"

    @property
    def N(self) -> int:
        return (self.radius + 1) // 2

    def profile(self) -> np.ndarray:
        """1-d weight values eta1(n/N) for n in [-(2N-1), 2N-1], as float64."""
        return self.factors[0].real.copy()

    def as_sequence(self) -> "SmoothWeight":
        return self


def _product_sequence(
    factors: tuple[np.ndarray, ...], label: str
) -> CoefficientSequence:
    """a(n) = prod_i factors[i][n_i + radius], built from the factors."""
    radius = (len(factors[0]) - 1) // 2
    return CoefficientSequence(len(factors), radius, None, label, factors)


def ones_sequence(dim: int, radius: int) -> CoefficientSequence:
    return _product_sequence((np.ones(2 * radius + 1),) * dim, "ones")


def delta_sequence(dim: int, radius: int) -> CoefficientSequence:
    spike = np.zeros(2 * radius + 1)
    spike[radius] = 1.0
    return _product_sequence((spike,) * dim, "delta")


def diagonal_extremizer(dim: int, radius: int, s: int) -> CoefficientSequence:
    """Indicator of the paired diagonal: a(n) = 1 when n_i = n_{s+i} in [1, radius]
    for i <= s and all remaining coordinates vanish.

    Concentrates the mass on the null directions of a split form shaped like
    sum_{i<=s} x_i^2 - x_{s+i}^2, where it is sup-extremal.
    """
    if not 1 <= s <= dim // 2:
        raise ValueError(f"need 1 <= s <= dim/2, got s={s}, dim={dim}")
    if radius < 1:
        raise ValueError("radius must be >= 1 for the extremizer")
    vals = np.zeros((2 * radius + 1,) * dim, dtype=np.complex128)
    for n in range(1, radius + 1):
        idx = [radius] * dim
        for i in range(s):
            idx[i] = n + radius
            idx[s + i] = n + radius
        vals[tuple(idx)] = 1.0
    label = f"extremizer(s={s})"
    return CoefficientSequence(dim, radius, vals.view(_Fresh), label=label)


def random_unit_sequence(dim: int, radius: int, seed: int) -> CoefficientSequence:
    """Complex Gaussian coefficients normalized to l2 norm 1, reproducible."""
    rng = np.random.default_rng(seed)
    shape = (2 * radius + 1,) * dim
    vals = np.empty(shape, dtype=np.complex128)
    vals.real = rng.standard_normal(shape)  # drawn before the imaginary parts
    vals.imag = rng.standard_normal(shape)
    vals /= np.linalg.norm(vals.ravel())
    label = f"random-unit({seed})"
    return CoefficientSequence(dim, radius, vals.view(_Fresh), label=label)


def make_sequence(
    family: str, dim: int, radius: int, *, s: int = 1, seed: int = 0
) -> CoefficientSequence:
    """Build a named family: ones | delta | extremizer | random-unit."""
    if family == "ones":
        return ones_sequence(dim, radius)
    if family == "delta":
        return delta_sequence(dim, radius)
    if family == "extremizer":
        return diagonal_extremizer(dim, radius, s)
    if family == "random-unit":
        return random_unit_sequence(dim, radius, seed)
    raise ValueError(
        f"unknown sequence family {family!r} "
        "(expected ones, delta, extremizer or random-unit)"
    )


def save_sequence(seq: CoefficientSequence, fh: TextIO) -> None:
    """Text format: header 'dim radius', then one 're im' pair per line in
    row-major (C) order over [-radius, radius]^dim."""
    fh.write(f"{seq.dim} {seq.radius}\n")
    for v in seq.values.ravel(order="C"):
        fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def load_sequence(fh: TextIO) -> CoefficientSequence:
    head = fh.readline().split()
    if len(head) != 2:
        raise ValueError("sequence file: first line must be 'dim radius'")
    dim, radius = int(head[0]), int(head[1])
    count = (2 * radius + 1) ** dim
    flat = np.empty(count, dtype=np.complex128)
    for k in range(count):
        parts = fh.readline().split()
        if len(parts) != 2:
            raise ValueError(f"sequence file: line {k + 2}: expected 're im'")
        flat[k] = float(parts[0]) + 1j * float(parts[1])
    return CoefficientSequence(
        dim, radius, flat.reshape((2 * radius + 1,) * dim).view(_Fresh), label="file"
    )
