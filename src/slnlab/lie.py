"""Structure theory of SL(n,R): singular-value and eigenvalue projections,
KA+K decomposition, the Iwasawa cocycle, and the symmetric-space distance.

All log-coordinate vectors live in the closed positive Weyl chamber: nonincreasing,
zero-sum. Operations are float64 by default; when an element carries exact rational
entries and the float64 dynamic range is exhausted (products of strong elements have
singular-value spreads far beyond 1/eps), the affected operation transparently
recomputes through mpmath at adaptive precision.

The Jordan projection reads its eigenvalue moduli from one np.linalg.eigvals call.
Two float64 misreadings stand (strict xfails in tests/test_lie.py). A parabolic word
reads as loxodromic when the ~sqrt(eps |g|) noise of its defective eigenvalue exceeds
gap_tol: 12 of the 264 parabolic words of the radius-7 Sanov ball. And the range
guard compares the small modulus with the large one, while the small one's error
scales with |g|^2 / lambda_max: b^-1 a^3 b on the strong pair reads +-9.32, not
+-3 log 148.
"""

from dataclasses import dataclass
import math

import numpy as np
from mpmath import mp

from . import exact
from .errors import SingularMatrix, SlnLabError

DET_TOL = 1e-9
DEFAULT_GAP_TOL = 1e-6  # consecutive eigenvalue-moduli gaps above it make an element loxodromic
# float64 singular values below ~1e-10 * sigma_1 carry few trustworthy digits
_RANGE_GUARD = 1e6 * np.finfo(float).eps


@dataclass(frozen=True)
class GroupElement:
    """An n x n real unimodular matrix, optionally with exact rational entries:
    exact is None or the (den, rows) pair of ``slnlab.exact``."""

    entries: np.ndarray
    exact: tuple | None = None
    validate: bool = True

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise SlnLabError(f"expected a square matrix with n >= 2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise SingularMatrix("non-finite entries")
        if self.validate:
            if self.exact is not None:
                if exact.mat_det(self.exact) != 1:
                    raise SlnLabError("exact determinant is not 1")
                img = np.array(exact.to_float(self.exact))
                if not np.array_equal(img, m):
                    raise SlnLabError("float entries disagree with exact entries")
            else:
                det = np.linalg.det(m)
                # rounding the entries and the elimination each move the determinant
                # by a few eps times the Hadamard bound prod_i |row_i|, which long
                # words raise far above 1
                hadamard = np.prod(np.linalg.norm(m, axis=1))
                tol = max(DET_TOL, 8 * m.shape[0] * np.finfo(float).eps * hadamard)
                if abs(det - 1.0) > tol:
                    raise SlnLabError(f"determinant {det} not within {tol} of 1")

    @property
    def n(self):
        return self.entries.shape[0]

    @classmethod
    def from_matrix(cls, rows, exact_rows=None):
        """Ingest a matrix given as nested lists; exact_rows holds 'p/q' strings."""
        if exact_rows is not None:
            return cls.from_exact(exact_rows)
        return cls(np.asarray(rows, dtype=float))

    @classmethod
    def from_exact(cls, rows):
        ex = exact.from_rows(rows)
        return cls(np.array(exact.to_float(ex)), exact=ex)

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n), exact=exact.identity(n), validate=False)

    def matmul(self, other):
        ex = None
        if self.exact is not None and other.exact is not None:
            ex = exact.mat_mul(self.exact, other.exact)
        return GroupElement(self.entries @ other.entries, exact=ex, validate=False)

    def inverse(self):
        ex = exact.mat_inv(self.exact) if self.exact is not None else None
        inv = np.array(exact.to_float(ex)) if ex is not None else np.linalg.inv(self.entries)
        return GroupElement(inv, exact=ex, validate=False)

    def __matmul__(self, other):
        return self.matmul(other)


@dataclass(frozen=True)
class CartanVector:
    """A point of the closed positive Weyl chamber (nonincreasing, zero-sum logs)."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if abs(c.sum()) > 1e-9:
            raise SlnLabError(f"chamber coordinates must sum to 0, got {c.sum()}")
        if np.any(np.diff(c) > 1e-12):
            raise SlnLabError("chamber coordinates must be nonincreasing")

    @property
    def norm(self):
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True)
class KAKDecomposition:
    k: np.ndarray
    a: CartanVector
    l: np.ndarray

    def reconstruct(self):
        return self.k @ np.diag(np.exp(self.a.coords)) @ self.l


@dataclass(frozen=True)
class RootValue:
    index: int  # 1-based, in [1, n-1]
    value: float


def _chamber(logs):
    v = np.sort(np.asarray(logs, dtype=float))[::-1]
    return CartanVector(v - v.mean())


def _mp_matrix(g):
    """g at the working precision; callers set it with mp.workdps, never mp.dps."""
    if g.exact is not None:
        rows = exact.from_scaled(g.exact)
        return mp.matrix([[mp.mpf(x.numerator) / mp.mpf(x.denominator) for x in row] for row in rows])
    # float64 entries are exact binary rationals; no further information to recover
    return mp.matrix([[mp.mpf(float(x)) for x in row] for row in g.entries])


def _adaptive_dps(scale, n):
    # dynamic range of a unimodular matrix is bounded by sigma_1^n
    return 40 + int(1.2 * n * max(0.0, math.log10(max(scale, 1.0))))


def _needs_extended(svals):
    return svals[-1] <= 0 or svals[-1] < svals[0] * _RANGE_GUARD


def cartan_projection(g: GroupElement) -> CartanVector:
    """Sorted-descending logs of the singular values of g."""
    svals = np.linalg.svd(g.entries, compute_uv=False)
    if svals[-1] <= 0.0 and g.exact is None:
        raise SingularMatrix("numerical rank < n")
    if _needs_extended(svals) and g.exact is not None:
        with mp.workdps(_adaptive_dps(svals[0], g.n)):
            svals_mp = mp.svd_r(_mp_matrix(g), compute_uv=False)
            return _chamber([float(mp.log(x)) for x in svals_mp])
    return _chamber(np.log(svals))


def svd_special(m):
    """SVD u, s, vt of a matrix or a stack (..., n, n) with u and vt in SO(n).

    For unimodular input det(u) det(vt) = 1, so flipping the last column of u and
    the last row of vt together keeps the product.
    """
    u, s, vt = np.linalg.svd(m)
    flip = np.where(np.linalg.det(u) < 0, -1.0, 1.0)
    u[..., :, -1] *= flip[..., None]
    vt[..., -1, :] *= flip[..., None]
    return u, s, vt


def kak_decomposition(g: GroupElement) -> KAKDecomposition:
    """g = k exp(a) l with k, l special orthogonal and a the Cartan projection."""
    u, _, vt = svd_special(g.entries)
    return KAKDecomposition(k=u, a=cartan_projection(g), l=vt)


def jordan_projection(g: GroupElement) -> CartanVector:
    """Sorted-descending logs of the eigenvalue moduli of g."""
    moduli = np.abs(np.linalg.eigvals(g.entries))
    if _needs_extended(np.sort(moduli)[::-1]) and g.exact is not None:
        with mp.workdps(_adaptive_dps(float(np.max(moduli)), g.n)):
            eigs, _ = mp.eig(_mp_matrix(g))
            return _chamber([float(mp.log(abs(x))) for x in eigs])
    if np.any(moduli <= 0.0):
        raise SingularMatrix("zero eigenvalue modulus")
    return _chamber(np.log(moduli))


def opposition_involution(h: CartanVector) -> CartanVector:
    """Reverse the coordinates and flip signs; for sl(n) this realizes H -> -w0 H."""
    return CartanVector(-h.coords[::-1])


def simple_root_values(h: CartanVector) -> list:
    """The n-1 consecutive differences h_i - h_{i+1}, each tagged with its index."""
    c = h.coords
    return [RootValue(i, float(c[i - 1] - c[i])) for i in range(1, len(c))]


def min_root_value(h: CartanVector) -> float:
    return float(np.min(-np.diff(h.coords)))


def iwasawa_cocycle(g: GroupElement, flag) -> np.ndarray:
    """Log-diagonal of the triangular factor of g applied to the flag's frame.

    Returns a zero-sum vector in a (not necessarily in the positive chamber).
    Satisfies the cocycle identity B(gh, F) = B(g, hF) + B(h, F).
    """
    m = g.entries @ flag.frame
    r = np.linalg.qr(m, mode="r")
    diag = np.abs(np.diag(r))
    scale = np.max(np.abs(m))
    if (np.min(diag) <= 0 or np.min(diag) < scale * _RANGE_GUARD) and g.exact is not None:
        return _iwasawa_extended(g, flag.frame)
    if np.min(diag) <= 0:
        raise SingularMatrix("triangular factor has a zero diagonal entry")
    b = np.log(diag)
    return b - b.mean()


def _iwasawa_extended(g, frame):
    # log R_ii = (log det G_i - log det G_{i-1}) / 2 over the Gram matrix G of g @ frame
    n = g.n
    scale = float(np.max(np.abs(g.entries)))
    with mp.workdps(_adaptive_dps(scale, n) + 20):
        M = _mp_matrix(g) * mp.matrix([[mp.mpf(float(x)) for x in row] for row in frame])
        G = M.T * M
        out = []
        prev = mp.mpf(1)
        for i in range(1, n + 1):
            d = mp.det(G[:i, :i])
            out.append(0.5 * float(mp.log(d) - mp.log(prev)))
            prev = d
    b = np.array(out)
    return b - b.mean()


def symmetric_space_distance(g: GroupElement, h: GroupElement) -> float:
    """d(g o, h o) = Euclidean norm of the Cartan projection of g^-1 h."""
    return cartan_projection(g.inverse().matmul(h)).norm


def is_loxodromic(g: GroupElement, gap_tol: float = DEFAULT_GAP_TOL) -> bool:
    """True iff all consecutive eigenvalue-moduli gaps exceed gap_tol."""
    return has_loxodromic_gaps(jordan_projection(g), gap_tol)


def has_loxodromic_gaps(lam: CartanVector, gap_tol: float) -> bool:
    """The test of is_loxodromic on a Jordan projection already computed."""
    if gap_tol <= 0:
        raise SlnLabError("gap_tol must be positive")
    return bool(np.all(-np.diff(lam.coords) > gap_tol))


def cartan_of_power(g: GroupElement, m: int) -> CartanVector:
    """Cartan projection of g^m, computed at adaptive extended precision.

    Dynamic range grows linearly in m, so the power is accumulated with mpmath
    (float64 entries are exact binary rationals and lose nothing in transit).
    """
    if m < 1:
        raise SlnLabError("power must be >= 1")
    top = cartan_projection(g).coords[0]
    spread_digits = m * g.n * max(top, 0.1) / math.log(10)
    with mp.workdps(40 + int(1.2 * spread_digits)):
        P = mp.eye(g.n)
        base = _mp_matrix(g)
        e = m
        while e:
            if e & 1:
                P = P * base
            e >>= 1
            if e:
                base = base * base
        svals = mp.svd_r(P, compute_uv=False)
        return _chamber([float(mp.log(x)) for x in svals])


def random_unimodular(rng, n, cond_cap=1e4):
    """Standard-normal entries projected to det 1, resampled past the condition cap."""
    while True:
        m = rng.standard_normal((n, n))
        det = np.linalg.det(m)
        if abs(det) < 1e-8:
            continue
        if det < 0:
            m[0, :] = -m[0, :]
            det = -det
        m = m / det ** (1.0 / n)
        if np.linalg.cond(m) <= cond_cap:
            return GroupElement(m)
