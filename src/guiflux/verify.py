"""Independent oracles for the core numerical operations.

Each check re-derives its expected values from scratch (plain loops, its
own inline formulas, trapezoid quadrature, finite differences) and
compares the production path against them. The oracles deliberately avoid
calling the functions they certify, so a perturbed constant anywhere in the
production math shows up as a named failure here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import policy as pol
from . import rewards as rw
from .geometry import BBox
from .policy import GroundingPolicy

VERIFY_SEED = 20240917
# Random cases per oracle.
N_GROUPS = 1000
N_PAIRS = 20
N_FIXTURES = 10
# Central-difference step of the gradient check.
FD_STEP = 1e-5


@dataclass(frozen=True)
class OracleResult:
    name: str
    passed: bool
    detail: str


def _random_bbox(rng: np.random.Generator) -> BBox:
    x1, x2 = sorted(rng.random(2))
    y1, y2 = sorted(rng.random(2))
    return BBox(x1, y1, x2, y2)


def _random_group(rng: np.random.Generator, n: int) -> list[BBox]:
    return [_random_bbox(rng) for _ in range(n)]


def check_center_spread(rng: np.random.Generator) -> OracleResult:
    """Brute-force mean squared distance to the centroid, plain loops."""
    worst = 0.0
    for _ in range(N_GROUPS):
        n = int(rng.integers(2, 9))
        group = _random_group(rng, n)
        cs = [((b.x1 + b.x2) / 2.0, (b.y1 + b.y2) / 2.0) for b in group]
        mx = sum(c[0] for c in cs) / n
        my = sum(c[1] for c in cs) / n
        expected = sum((c[0] - mx) ** 2 + (c[1] - my) ** 2 for c in cs) / n
        worst = max(worst, abs(rw.center_spread(group) - expected))
    return OracleResult("center-spread", worst < 1e-9, f"max |diff| = {worst:.3e}")


def _inline_gaussian(b: BBox, kappa: float, eps_min: float):
    sx = kappa * (b.x2 - b.x1)
    sy = kappa * (b.y2 - b.y1)
    return (
        (b.x1 + b.x2) / 2.0,
        (b.y1 + b.y2) / 2.0,
        max(sx * sx, eps_min),
        max(sy * sy, eps_min),
    )


def _inline_bhattacharyya(g1, g2) -> float:
    mx1, my1, vx1, vy1 = g1
    mx2, my2, vx2, vy2 = g2
    ax = (vx1 + vx2) / 2.0
    ay = (vy1 + vy2) / 2.0
    maha = ((mx1 - mx2) ** 2 / ax + (my1 - my2) ** 2 / ay) / 8.0
    return maha + 0.5 * math.log((ax * ay) / math.sqrt(vx1 * vy1 * vx2 * vy2))


def _quad_bhattacharyya(g1, g2) -> float:
    """-ln of the overlap integral of sqrt(p*q) by the trapezoid rule on an
    801 x 801 grid reaching 12 sd past both means; the rule converges
    geometrically on such smooth, fast-decaying integrands."""
    mu1, var1 = np.array(g1[:2]), np.array(g1[2:])
    mu2, var2 = np.array(g2[:2]), np.array(g2[2:])
    lo = np.minimum(mu1 - 12.0 * np.sqrt(var1), mu2 - 12.0 * np.sqrt(var2))
    hi = np.maximum(mu1 + 12.0 * np.sqrt(var1), mu2 + 12.0 * np.sqrt(var2))
    nodes = np.linspace(lo, hi, 801)  # column k holds the nodes of axis k
    x, y = np.meshgrid(nodes[:, 0], nodes[:, 1], indexing="ij")

    def logpdf(mu, var):
        z2 = (x - mu[0]) ** 2 / var[0] + (y - mu[1]) ** 2 / var[1]
        return -0.5 * z2 - math.log(2.0 * math.pi) - 0.5 * math.log(var[0] * var[1])

    f = np.exp(0.5 * (logpdf(mu1, var1) + logpdf(mu2, var2)))
    w = np.ones(len(nodes))
    w[0] = w[-1] = 0.5
    dx, dy = nodes[1] - nodes[0]
    return float(-math.log(dx * dy * (w @ f @ w)))


def check_bhattacharyya(rng: np.random.Generator) -> OracleResult:
    """Closed form vs the quadrature overlap integral, plus the exact identities."""
    # Exact: identical Gaussians -> 0.
    a = (0.3, 0.7, 0.01, 0.02)
    if abs(rw.bhattacharyya(a, a)) > 1e-12:
        return OracleResult("bhattacharyya", False, "identical Gaussians not at 0")
    # Exact: equal covariances reduce to Mahalanobis^2 / 8.
    b = (0.5, 0.4, 0.01, 0.02)
    maha8 = ((0.2 ** 2) / 0.01 + (0.3 ** 2) / 0.02) / 8.0
    if abs(rw.bhattacharyya(a, b) - maha8) > 1e-12:
        return OracleResult(
            "bhattacharyya", False,
            f"equal-covariance case off: {rw.bhattacharyya(a, b)} vs {maha8}",
        )

    worst = 0.0
    tested = 0
    while tested < N_PAIRS:
        mus = 0.2 + 0.6 * rng.random(4)
        vars_ = np.exp(rng.uniform(np.log(1e-3), np.log(2.5e-2), 4))
        g1 = (mus[0], mus[1], vars_[0], vars_[1])
        g2 = (mus[2], mus[3], vars_[2], vars_[3])
        closed = rw.bhattacharyya(g1, g2)
        # Keep the distance in a band where a relative error is meaningful.
        if not 0.1 <= _inline_bhattacharyya(g1, g2) <= 3.0:
            continue
        tested += 1
        quad = _quad_bhattacharyya(g1, g2)
        worst = max(worst, abs(closed - quad) / abs(quad))
    return OracleResult(
        "bhattacharyya", worst < 1e-10,
        f"max rel err vs quadrature = {worst:.3e} ({N_PAIRS} pairs)",
    )


def check_region_separation(rng: np.random.Generator) -> OracleResult:
    """Double-loop pairwise average with its own inline Gaussian transform
    and distance formula."""
    kappa, eps_min = 0.25, 1e-8
    worst = 0.0
    for _ in range(N_GROUPS):
        n = int(rng.integers(2, 9))
        group = _random_group(rng, n)
        gaussians = [_inline_gaussian(b, kappa, eps_min) for b in group]
        total = 0.0
        pairs = 0
        for i in range(n):
            for j in range(n):
                if i < j:
                    total += _inline_bhattacharyya(gaussians[i], gaussians[j])
                    pairs += 1
        expected = total / pairs
        got = rw.region_separation(group, kappa, eps_min)
        worst = max(worst, abs(got - expected))
    return OracleResult("region-separation", worst < 1e-9, f"max |diff| = {worst:.3e}")


def check_advantage(rng: np.random.Generator, n_cases: int = 500) -> OracleResult:
    """Normalization contract: mean 0, population std 1, zeros when degenerate."""
    for _ in range(n_cases):
        n = int(rng.integers(1, 9))
        r = rng.random(n) * 2.0
        a = pol.grpo_advantage(r)
        if n == 1 or r.std() < 1e-12:
            if (a != 0.0).any():
                return OracleResult("advantage-normalization", False, "degenerate input not zeroed")
            continue
        if abs(a.mean()) > 1e-9 or abs(a.std() - 1.0) > 1e-9:
            return OracleResult(
                "advantage-normalization", False,
                f"mean {a.mean():.2e}, std {a.std():.6f}",
            )
    a = pol.grpo_advantage(np.array([1.0, 1.0, 1.0, 1.0]))
    if (a != 0.0).any():
        return OracleResult("advantage-normalization", False, "constant rewards not zeroed")
    a = pol.grpo_advantage(np.array([0.0, 2.0]))
    if abs(a[0] + 1.0) > 1e-12 or abs(a[1] - 1.0) > 1e-12:
        return OracleResult("advantage-normalization", False, f"[0,2] -> {a}")
    return OracleResult("advantage-normalization", True, f"{n_cases} cases + exact checks")


def _random_fixture(rng: np.random.Generator, feature_dim: int = 8, n: int = 4):
    state = rng.normal(0.0, 1.5, feature_dim)
    theta = GroundingPolicy(
        rng.normal(0.0, 0.4, (feature_dim, 4)),
        rng.normal(0.0, 0.3, 4),
        rng.uniform(-3.0, 0.0, 4),
    )
    ref = GroundingPolicy(
        theta.W + rng.normal(0.0, 0.1, (feature_dim, 4)),
        theta.b + rng.normal(0.0, 0.1, 4),
        np.clip(theta.log_std + rng.uniform(-0.3, 0.3, 4), -6.0, 1.0),
    )
    # Sampled from `ref`, differentiated at `theta`: the ratios are not 1.
    rollout = pol.sample_group(ref, state, n, rng)
    advantages = pol.grpo_advantage(rng.random(n) * 2.0)
    shaped = advantages + float(rng.random())  # plus a random diversity bonus
    return theta, ref, rollout, shaped


def check_gradient(rng: np.random.Generator) -> OracleResult:
    """Analytic gradient vs central finite differences of the objective."""
    worst = 0.0
    for k in range(N_FIXTURES):
        beta = 0.0 if k % 2 == 0 else 0.04
        theta, ref, rollout, shaped = _random_fixture(rng)
        dW, db, dlog_std = pol.grad_objective(rollout, shaped, theta, ref, beta)
        analytic = np.concatenate([dW.ravel(), db, dlog_std])

        flat = np.concatenate([theta.W.ravel(), theta.b, theta.log_std])
        fd = np.zeros_like(flat)
        nw = theta.W.size

        def unflatten(v):
            return GroundingPolicy(
                v[:nw].reshape(theta.W.shape), v[nw : nw + 4], v[nw + 4 :]
            )

        for i in range(flat.size):
            up = flat.copy(); up[i] += FD_STEP
            dn = flat.copy(); dn[i] -= FD_STEP
            fd[i] = (
                pol.objective(rollout, shaped, unflatten(up), ref, beta)
                - pol.objective(rollout, shaped, unflatten(dn), ref, beta)
            ) / (2.0 * FD_STEP)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    return OracleResult(
        "gradient-check", worst < 1e-4, f"max rel err = {worst:.3e} ({N_FIXTURES} fixtures)"
    )


def verify_all() -> list[OracleResult]:
    """Run every oracle with deterministic streams; order is stable."""
    return [
        check_center_spread(np.random.default_rng(VERIFY_SEED)),
        check_bhattacharyya(np.random.default_rng(VERIFY_SEED + 1)),
        check_region_separation(np.random.default_rng(VERIFY_SEED + 2)),
        check_advantage(np.random.default_rng(VERIFY_SEED + 3)),
        check_gradient(np.random.default_rng(VERIFY_SEED + 4)),
    ]
