"""Seeded Haar sampling on the flag variety and samplers for admissible regions.

All randomness flows through numpy Generators seeded deterministically from a
global seed and a stable hash of the element under test, so certification results
do not depend on scheduling or call order.
"""

import hashlib

import numpy as np

from .errors import InsufficientBudget
from .flags import batch_orthonormalize, batch_transversality_margin

_MAX_BATCHES = 400  # rejection batches before a region counts as too thin
_BAND_FACTOR = 1.1  # the weak band's upper margin, in multiples of eps
_PARTNER_SCALE = 1e-4  # the first perturbation step of a Lipschitz partner
_PARTNER_TRIES = 8  # halvings of that step before a partner is given up


def element_seed(g, global_seed=0):
    """Stable 64-bit seed derived from an element's rounded entries."""
    h = hashlib.sha256()
    h.update(np.round(np.asarray(g.entries, dtype=float), 12).tobytes())
    h.update(int(global_seed).to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest()[:8], "little")


def rng_for(g, global_seed=0):
    return np.random.default_rng(element_seed(g, global_seed))


def haar_frames(rng, n, count):
    """Haar-distributed orthogonal frames via sign-fixed QR of Gaussians."""
    return batch_orthonormalize(rng.standard_normal((count, n, n)))


def sample_flags_outside(rng, y, eps, count):
    """Haar flag frames with transversality margin >= eps against y.

    Rejection sampling; raises InsufficientBudget when the region is too thin
    to populate (the practical signal that eps is too large).
    """
    n = y.n
    kept = []
    have = 0
    for _ in range(_MAX_BATCHES):
        batch = haar_frames(rng, n, max(count, 64))
        margins = batch_transversality_margin(batch, y.frame)
        good = batch[margins >= eps]
        if good.shape[0]:
            kept.append(good)
            have += good.shape[0]
        if have >= count:
            return np.concatenate(kept, axis=0)[:count]
    raise InsufficientBudget(
        f"could not draw {count} flags with margin >= {eps} in {_MAX_BATCHES} batches"
    )


def band_flags_near(rng, y, eps, count):
    """Flags with margin in the weak-contraction band [eps, _BAND_FACTOR * eps].

    Each sample starts from an admissible Haar flag and bisects along the chord
    toward y viewed as a flag (margin 0 there), landing inside the band. The
    bisection runs vectorized over the whole batch.
    """
    # y's own filtration read as a flag: first columns = reversed trailing columns
    target = y.frame[:, ::-1][None]
    starts = sample_flags_outside(rng, y, eps * _BAND_FACTOR, count)
    lo_m, hi_m = eps, eps * _BAND_FACTOR
    t_lo = np.zeros(count)
    t_hi = np.ones(count)
    out = starts.copy()
    landed = np.zeros(count, dtype=bool)
    for _ in range(48):
        active = ~landed
        if not active.any():
            break
        t = 0.5 * (t_lo + t_hi)
        blend = (1.0 - t[active, None, None]) * starts[active] + t[active, None, None] * target
        frames = batch_orthonormalize(blend)
        margins = batch_transversality_margin(frames, y.frame)
        idx = np.nonzero(active)[0]
        below = margins < lo_m
        above = margins > hi_m
        inside = ~(below | above)
        t_hi[idx[below]] = t[idx[below]]
        t_lo[idx[above]] = t[idx[above]]
        out[idx[inside]] = frames[inside]
        landed[idx[inside]] = True
    if not landed.all():
        # leftover samples keep their last admissible iterate (margin > hi_m)
        rest = np.nonzero(~landed)[0]
        blend = (1.0 - t_lo[rest, None, None]) * starts[rest] + t_lo[rest, None, None] * target
        out[rest] = batch_orthonormalize(blend)
    return out


def perturbed_partners(rng, frames, y, eps):
    """Nearby admissible partner frames for Lipschitz-ratio estimation."""
    n = frames.shape[1]
    partners = np.empty_like(frames)
    todo = np.arange(frames.shape[0])
    step = _PARTNER_SCALE
    for _ in range(_PARTNER_TRIES):
        noise = rng.standard_normal((todo.size, n, n)) * step
        cand = batch_orthonormalize(frames[todo] + noise)
        margins = batch_transversality_margin(cand, y.frame)
        ok = margins >= eps
        partners[todo[ok]] = cand[ok]
        todo = todo[~ok]
        if todo.size == 0:
            return partners
        step *= 0.5
    partners[todo] = frames[todo]  # degenerate pair, filtered out by caller
    return partners
