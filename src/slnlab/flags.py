"""The full flag variety of R^n and its opposite, as orthonormal frames.

A Flag's i-th subspace is spanned by the first i frame columns; an OppositeFlag's
i-th subspace by the last i columns. Frames are never sign-canonicalized: all
comparisons go through orthogonal projectors, which kill column signs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotLoxodromic, RankDeficient, SlnLabError
from .lie import DEFAULT_GAP_TOL, GroupElement, is_loxodromic

_ORTHO_TOL = 1e-9


def _check_orthogonal(frame):
    f = np.asarray(frame, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise SlnLabError(f"frame must be square, got {f.shape}")
    if np.max(np.abs(f.T @ f - np.eye(f.shape[0]))) > _ORTHO_TOL:
        raise SlnLabError("frame is not orthogonal within 1e-9")
    return f


@dataclass(frozen=True)
class Flag:
    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", _check_orthogonal(self.frame))

    @property
    def n(self):
        return self.frame.shape[0]


@dataclass(frozen=True)
class OppositeFlag:
    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", _check_orthogonal(self.frame))

    @property
    def n(self):
        return self.frame.shape[0]


@dataclass(frozen=True)
class TransversalityMargin:
    """min over levels of the smallest singular value of the concatenated frames.

    Zero exactly when some pair of complementary subspaces fails to span R^n.
    """

    value: float


def standard_flag(n) -> Flag:
    return Flag(np.eye(n))


def standard_opposite(n) -> OppositeFlag:
    return OppositeFlag(np.eye(n))


def batch_orthonormalize(m, reverse=False):
    """Q factors with positive R diagonals for a matrix or a stack (..., n, n).

    Columns are orthonormalized in order, preserving the leading-column spans; with
    reverse they are taken from the last column, preserving the trailing spans.
    """
    if reverse:
        return batch_orthonormalize(m[..., ::-1])[..., ::-1]
    q, r = np.linalg.qr(m)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[..., None, :]


def _check_full_rank(m):
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= 10 * m.shape[0] * np.finfo(float).eps * svals[0]:
        raise RankDeficient("numerical rank < n")


def flag_from_frame(m) -> Flag:
    """Orthonormalize the columns in order, preserving leading-column spans."""
    m = np.asarray(m, dtype=float)
    _check_full_rank(m)
    return Flag(batch_orthonormalize(m))


def opposite_from_frame(m) -> OppositeFlag:
    """Orthonormalize from the last column, preserving trailing-column spans."""
    m = np.asarray(m, dtype=float)
    _check_full_rank(m)
    return OppositeFlag(batch_orthonormalize(m, reverse=True))


def act_on_flag(g: GroupElement, f):
    """The linear action on either flag variety."""
    if isinstance(f, Flag):
        return Flag(batch_orthonormalize(g.entries @ f.frame))
    if isinstance(f, OppositeFlag):
        return OppositeFlag(batch_orthonormalize(g.entries @ f.frame, reverse=True))
    raise SlnLabError(f"cannot act on {type(f).__name__}")


def batch_projector_distance(a, b, reverse=False):
    """Projector metric between broadcast stacks of frames (..., n, n).

    The max over levels of the operator norm of the projector difference, in [0, 1],
    on the leading-column filtrations (flags) or, with reverse, on the trailing ones
    (opposite flags).
    """
    n = a.shape[-1]
    out = 0.0
    for i in range(1, n):
        sa, sb = (a[..., n - i :], b[..., n - i :]) if reverse else (a[..., :i], b[..., :i])
        diff = sa @ np.swapaxes(sa, -1, -2) - sb @ np.swapaxes(sb, -1, -2)
        out = np.maximum(out, np.linalg.svd(diff, compute_uv=False)[..., 0])
    return out


def flag_distance(f1: Flag, f2: Flag) -> float:
    """max over levels of the operator norm of the projector difference; in [0, 1]."""
    return float(batch_projector_distance(f1.frame, f2.frame))


def opposite_distance(y1: OppositeFlag, y2: OppositeFlag) -> float:
    """The projector metric on the trailing-column filtrations."""
    return float(batch_projector_distance(y1.frame, y2.frame, reverse=True))


def batch_transversality_margin(x, y):
    """Margins of broadcast stacks of flag frames x against opposite-flag frames y.

    The min over levels i of the smallest singular value of (first i columns of x,
    last n-i columns of y), clipped at 0.
    """
    n = x.shape[-1]
    shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    out = np.inf
    for i in range(1, n):
        m = np.concatenate(
            [np.broadcast_to(x[..., :i], shape + (n, i)), np.broadcast_to(y[..., i:], shape + (n, n - i))],
            axis=-1,
        )
        out = np.minimum(out, np.linalg.svd(m, compute_uv=False)[..., -1])
    return np.maximum(out, 0.0)


def transversality_margin(x: Flag, y: OppositeFlag) -> TransversalityMargin:
    """Smallest singular value over the concatenations (first i of x, last n-i of y)."""
    return TransversalityMargin(float(batch_transversality_margin(x.frame, y.frame)))


def fixed_flags(g: GroupElement, gap_tol: float = DEFAULT_GAP_TOL):
    """Attracting flag and repelling opposite flag of g, from one eigen-decomposition.

    The eigenvectors sorted by decreasing eigenvalue modulus span the attracting
    flag from the first column and the repelling one from the last.
    """
    if not is_loxodromic(g, gap_tol):
        raise NotLoxodromic()
    w, v = np.linalg.eig(g.entries)
    if np.max(np.abs(w.imag)) > 1e-8 * np.max(np.abs(w)):
        raise NotLoxodromic("complex eigenvalues despite moduli gaps")
    v = np.real(v[:, np.argsort(-np.abs(w))])
    return Flag(batch_orthonormalize(v)), OppositeFlag(batch_orthonormalize(v, reverse=True))


def attracting_flag(g: GroupElement, gap_tol: float = DEFAULT_GAP_TOL) -> Flag:
    """Flag of the eigenvectors in decreasing-modulus order; fixed by the action."""
    return fixed_flags(g, gap_tol)[0]


def repelling_flag(g: GroupElement, gap_tol: float = DEFAULT_GAP_TOL) -> OppositeFlag:
    """Opposite flag whose i-th subspace spans the i smallest-modulus eigenvectors."""
    return fixed_flags(g, gap_tol)[1]


def flag_to_json(f):
    kind = "flag" if isinstance(f, Flag) else "opposite"
    return {"frame": f.frame.tolist(), "kind": kind}


def flag_from_json(obj):
    frame = np.asarray(obj["frame"], dtype=float)
    if obj.get("kind") == "opposite":
        return OppositeFlag(frame)
    return Flag(frame)


def batch_act(g: GroupElement, frames):
    """The action of g on a stack of flag frames."""
    return batch_orthonormalize(g.entries[None] @ frames)
