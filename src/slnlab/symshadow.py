"""Symmetric-space shadows: membership by constrained minimization over the chamber.

A flag belongs to the shadow of the ball B_R(q) viewed from p when the chamber ray
through the flag's frame passes within R of q. Membership reduces to minimizing
H -> d(exp(H) o, q) over the positive chamber; a coarse ray/radius grid plus a
derivative-free polytope refinement yields an upper bound for the minimum, so a
positive membership verdict is certain and a negative one is best-effort.

The grid runs as one stack with the scalar objective's float operations: a seed t*ray
(t >= 0) is nonincreasing, so projecting it only centers it. Calibration searches each
probe once, at the smallest radius: a member there is one at every larger R, and a miss
ran the full search, which a larger R repeats unless it exits early as a member; so the
missed distance > R decides every R.

The refinement is scipy 1.17's Nelder-Mead, written out here step for step so that
importing slnlab leaves scipy's optimize package unloaded (about a quarter of a second
per process on a 2-core x86-64 host).
"""

from dataclasses import dataclass
from functools import cache, cached_property
import math

import numpy as np
# kept only for the benchmark tracer, which reads this name to wrap scipy's minimize
# (ROADMAP item 1(d)); the bare package costs about 10 ms and imports neither its
# linalg nor its optimize package until they are accessed
import scipy

from .contraction import DEFAULT_GAP_TOL, MIN_BUDGET, Shadow, _certify_at_eps_or_2eps
from .errors import MembershipUnverified, SlnLabError
from .lie import CartanVector, GroupElement, cartan_projection, kak_decomposition, symmetric_space_distance
from .sampling import haar_frames
from .flags import Flag, batch_orthonormalize

_BIG = 1e18


def project_chamber(v):
    """Euclidean projection onto zero-sum nonincreasing vectors (pool adjacent violators)."""
    v = np.asarray(v, dtype=float)
    v = v - v.sum() / len(v)
    # nonincreasing isotonic projection preserves the (zero) sum
    blocks = []
    for val in -v:
        blocks.append([val, 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            b = blocks.pop()
            a = blocks[-1]
            tot = a[1] + b[1]
            a[0] = (a[0] * a[1] + b[0] * b[1]) / tot
            a[1] = tot
    out = []
    for val, w in blocks:
        out.extend([val] * int(round(w)))
    return -np.asarray(out)


@dataclass(frozen=True)
class SymShadowQuery:
    """Shadow of the ball B_R(target o) viewed from base o."""

    base: GroupElement
    target: GroupElement
    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise SlnLabError("R must be positive")

    @cached_property
    def base_inv(self) -> GroupElement:
        return self.base.inverse()

    @cached_property
    def translated(self) -> GroupElement:
        """The target seen from the origin: base^-1 target."""
        return self.base_inv.matmul(self.target)

    @cached_property
    def kappa(self) -> np.ndarray:
        """Cartan projection of the translated target; read-only."""
        coords = cartan_projection(self.translated).coords
        coords.flags.writeable = False
        return coords


@dataclass
class MembershipResult:
    member: bool
    achieved: float
    minimizer: CartanVector


@cache
def _chamber_rays(n, count):
    """Deterministic spread of unit directions inside the positive chamber; read-only."""
    # extreme rays of the chamber: partial-sum coweight directions
    extremes = []
    for i in range(1, n):
        v = np.array([1.0] * i + [0.0] * (n - i))
        v -= v.mean()
        extremes.append(v / np.linalg.norm(v))
    rays = []
    rng = np.random.default_rng(12345)
    while len(rays) < count:
        w = rng.dirichlet(np.ones(len(extremes)))
        v = sum(wi * e for wi, e in zip(w, extremes))
        v = project_chamber(v)
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            rays.append(v / nv)
    rays = np.array(rays)
    rays.flags.writeable = False
    return rays


def _objective_factory(kframe, target_entries):
    core = kframe.T @ target_entries
    n = len(core)

    def objective(h_raw):
        h = project_chamber(h_raw)
        svals = np.linalg.svd(np.exp(-h)[:, None] * core, compute_uv=False)
        if not (svals[-1] > 0 and np.isfinite(svals).all()):
            return _BIG
        logs = np.log(svals)
        c = logs - logs.sum() / n
        return math.sqrt(c.dot(c))

    def grid(H):
        """Objective of each chamber row of H, by the scalar objective's float operations."""
        svals = np.linalg.svd(np.exp(-H)[:, :, None] * core, compute_uv=False)
        ok = (svals[:, -1] > 0) & np.isfinite(svals).all(axis=1)
        logs = np.log(np.where(ok[:, None], svals, 1.0))
        c = logs - (logs.sum(axis=1) / n)[:, None]
        return np.where(ok, np.sqrt(np.vecdot(c, c)), _BIG)

    return objective, grid


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    nfev: int


def nelder_mead(objective, x0, maxiter, xatol, fatol) -> NelderMeadResult:
    """Minimize objective from x0 by scipy 1.17's non-adaptive Nelder-Mead, step for step.

    The same steps as scipy's minimize(objective, x0, method="Nelder-Mead", options=
    {"maxiter": maxiter, "xatol": xatol, "fatol": fatol}) for float64 x0: reflection 1,
    expansion 2, contraction and shrink 1/2, written as literals by scipy's float
    operations; a first simplex that scales each coordinate by 1.05 (a zero one becomes
    0.00025); an argsort of the simplex after every step. objective must not write to
    its argument.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return objective(x)

    x0 = np.array(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    # scipy sorts the first simplex twice; argsort need not keep ties in order
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < maxiter:
        if np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol:
            break
        xbar = sim[:-1].sum(axis=0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = 1.5 * xbar - 0.5 * sim[-1]
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = 0.5 * xbar + 0.5 * sim[-1]
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                fsim[j] = f(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return NelderMeadResult(sim[0], float(np.min(fsim)), nfev)


def sym_shadow_membership(
    query: SymShadowQuery,
    f: Flag,
    rays: int = 9,
    radii: int = 20,
    refine_iters: int = 200,
) -> MembershipResult:
    """Decide whether the flag lies in the shadow, minimizing the ray-to-ball distance.

    A general base is reduced by translation to a shadow viewed from the origin.
    The reported distance is an upper bound for the true minimum.
    """
    frame = batch_orthonormalize(query.base_inv.entries @ f.frame)
    n = query.target.n
    objective, grid = _objective_factory(frame, query.translated.entries)
    kappa_t = query.kappa
    scale = max(float(np.linalg.norm(kappa_t)), 1.0)

    best_h = project_chamber(kappa_t)
    best = objective(best_h)
    if best <= query.R:
        return MembershipResult(True, best, CartanVector(best_h))

    # the origin, then each ray at each radius; PAV merges no block of these seeds
    ts = np.linspace(0.0, 1.5 * scale, radii)
    H = np.concatenate([np.zeros((1, n)), (_chamber_rays(n, rays)[:, None, :] * ts[:, None]).reshape(-1, n)])
    H = H - (H.sum(axis=1) / n)[:, None]
    vals = grid(H)
    # a seed-by-seed scan stops at the first seed at or below R/2
    exits = np.flatnonzero(vals <= query.R * 0.5)
    if exits.size:
        return MembershipResult(True, float(vals[exits[0]]), CartanVector(H[exits[0]]))
    i = int(np.argmin(vals))
    if vals[i] < best:
        best, best_h = float(vals[i]), H[i]

    res = nelder_mead(objective, best_h, refine_iters, xatol=1e-8, fatol=1e-10)
    if res.fun < best:
        best, best_h = float(res.fun), project_chamber(res.x)
    return MembershipResult(bool(best <= query.R), best, CartanVector(best_h))


def ray_distance_bound(f: Flag, gamma: GroupElement, R: float, tol: float = 1e-7):
    """For a member flag, the chamber point at the target's Cartan vector stays 2R-close.

    Returns (lhs, bound, holds); raises MembershipUnverified when the flag cannot
    be confirmed to lie in the shadow.
    """
    query = SymShadowQuery(GroupElement.identity(gamma.n), gamma, R)
    res = sym_shadow_membership(query, f)
    if not res.member:
        raise MembershipUnverified(f"achieved distance {res.achieved:.6f} > R={R}")
    m = np.exp(-query.kappa)[:, None] * (f.frame.T @ gamma.entries)
    svals = np.linalg.svd(m, compute_uv=False)
    logs = np.log(svals)
    lhs = float(np.linalg.norm(logs - logs.mean()))
    return lhs, 2 * R, lhs <= 2 * R + tol


def overlap_distance_bound(
    g1: GroupElement, g2: GroupElement, R: float, probe_budget: int = 64, seed: int = 0
):
    """Probe for a flag in both shadows; any hit forces orbit points 4R-close up to
    the Cartan difference. Returns (intersects, distance_bound_holds)."""
    n = g1.n
    q1 = SymShadowQuery(GroupElement.identity(n), g1, R)
    q2 = SymShadowQuery(GroupElement.identity(n), g2, R)

    probes = [Flag(kak_decomposition(g).k) for g in (g1, g2)]
    rng = np.random.default_rng(seed)
    if probe_budget > 2:
        probes += [Flag(fr) for fr in haar_frames(rng, n, probe_budget - 2)]

    intersects = False
    for f in probes:
        if sym_shadow_membership(q1, f).member and sym_shadow_membership(q2, f).member:
            intersects = True
            break
    if not intersects:
        return False, True
    lhs, rhs = _orbit_separation(g1, g2, R)
    return True, lhs <= rhs + 1e-6


def _orbit_separation(g1, g2, R):
    """(d(g1 o, g2 o), 4R + |kappa(g1) - kappa(g2)|): shadows of B_R(g1 o) and
    B_R(g2 o) that share a flag force the left side down to the right."""
    lhs = symmetric_space_distance(g1, g2)
    rhs = 4 * R + float(
        np.linalg.norm(cartan_projection(g1).coords - cartan_projection(g2).coords)
    )
    return lhs, rhs


def shadows_certified_disjoint(g1: GroupElement, g2: GroupElement, R: float) -> bool:
    """Sufficient disjointness: orbit points farther apart than 4R plus the Cartan
    difference cannot share a shadow point. Unknown counts as overlapping."""
    lhs, rhs = _orbit_separation(g1, g2, R)
    return lhs > rhs


@dataclass
class InclusionProbeReport:
    holds: bool
    violations: int
    probes: int
    vacuous: bool = False


def flag_shadow_in_sym_shadow(
    g: GroupElement,
    epsilon: float,
    R: float,
    probe_budget: int = 64,
    seed: int = 0,
    cert=None,
) -> InclusionProbeReport:
    """Probe whether the 2eps flag shadow of g sits inside the shadow of B_R(g o).

    cert is g's contraction certificate at epsilon or 2*epsilon; None certifies g here.
    """
    if cert is None:
        cert = _certify_at_eps_or_2eps(g, epsilon, MIN_BUDGET, DEFAULT_GAP_TOL, seed)
    if probe_budget <= 0:
        return InclusionProbeReport(holds=True, violations=0, probes=0, vacuous=True)
    missed, probes = _missed_probes(g, cert, epsilon, R, probe_budget, seed)
    return InclusionProbeReport(holds=not missed, violations=len(missed), probes=probes)


def _missed_probes(g, cert, epsilon, R, probe_budget, seed):
    """(achieved distances of the 2eps shadow probes outside the shadow of B_R(g o), probe count)."""
    pushed = Shadow(g, cert.repelling, 2 * epsilon).sample(np.random.default_rng(seed), probe_budget)
    query = SymShadowQuery(GroupElement.identity(g.n), g, R)
    results = [sym_shadow_membership(query, Flag(f)) for f in pushed]
    return [res.achieved for res in results if not res.member], len(pushed)


def calibrate_radius(
    g: GroupElement, epsilon: float, radii, probe_budget: int = 48, seed: int = 0
):
    """Sweep candidate radii; report violation counts and the smallest clean radius.

    g is certified once, and each probe is searched once, at the smallest radius.
    Returns (rows, r_min) where rows are (epsilon, n, R, violations, probes).
    """
    cert = _certify_at_eps_or_2eps(g, epsilon, MIN_BUDGET, DEFAULT_GAP_TOL, seed)
    radii = sorted(radii)
    missed, probes = [], 0
    if radii and probe_budget > 0:
        missed, probes = _missed_probes(g, cert, epsilon, radii[0], probe_budget, seed)
    rows = [(epsilon, g.n, R, sum(d > R for d in missed), probes) for R in radii]
    r_min = next((row[2] for row in rows if row[3] == 0), None)
    return rows, r_min
