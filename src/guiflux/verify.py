"""Independent oracles for the core numerical operations.

Each check re-derives its expected values from scratch (plain loops, its
own inline formulas, trapezoid quadrature, finite differences) and
compares the production path against them. The oracles deliberately avoid
calling the functions they certify, so a perturbed formula in the production
math shows up as a named failure here. The reward constants are certified
too: region-separation runs `rewards.KAPPA` and `rewards.EPS_MIN` as the
training step does and checks the result against its own copies, 1.0 and
1e-8, and point-distance does the same for `rewards.TAU` against 0.1.
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


def _inline_gaussian(b: BBox):
    """The box's Gaussian at the oracle's own KAPPA 1.0 and EPS_MIN 1e-8."""
    sx = 1.0 * (b.x2 - b.x1)
    sy = 1.0 * (b.y2 - b.y1)
    return (
        (b.x1 + b.x2) / 2.0,
        (b.y1 + b.y2) / 2.0,
        max(sx * sx, 1e-8),
        max(sy * sy, 1e-8),
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
    geometrically on such smooth, fast-decaying integrands. For diagonal
    Gaussians sqrt(p*q) is an x factor times a y factor, and so is the
    grid's sum: it is taken as the product of two 801-node sums."""
    w = np.ones(801)
    w[0] = w[-1] = 0.5
    overlap = 1.0
    for mu1, var1, mu2, var2 in ((g1[0], g1[2], g2[0], g2[2]), (g1[1], g1[3], g2[1], g2[3])):
        lo = min(mu1 - 12.0 * math.sqrt(var1), mu2 - 12.0 * math.sqrt(var2))
        hi = max(mu1 + 12.0 * math.sqrt(var1), mu2 + 12.0 * math.sqrt(var2))
        t = np.linspace(lo, hi, 801)

        def logpdf(mu, var):
            return -0.5 * (t - mu) ** 2 / var - 0.5 * math.log(2.0 * math.pi * var)

        f = np.exp(0.5 * (logpdf(mu1, var1) + logpdf(mu2, var2)))
        overlap *= (t[1] - t[0]) * (w @ f)
    return -math.log(overlap)


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
    """Double-loop pairwise average with its own inline Gaussian transform,
    constants and distance formula."""
    worst = 0.0
    for _ in range(N_GROUPS):
        n = int(rng.integers(2, 9))
        group = _random_group(rng, n)
        gaussians = [_inline_gaussian(b) for b in group]
        total = 0.0
        pairs = 0
        for i in range(n):
            for j in range(n):
                if i < j:
                    total += _inline_bhattacharyya(gaussians[i], gaussians[j])
                    pairs += 1
        expected = total / pairs
        got = rw.region_separation([rw.to_gaussian(b) for b in group])
        worst = max(worst, abs(got - expected))
    return OracleResult("region-separation", worst < 1e-9, f"max |diff| = {worst:.3e}")


def check_point_distance(rng: np.random.Generator) -> OracleResult:
    """The point_distance kind, scored as the training step scores a group,
    against a plain loop with its own scale 0.1: exp(-dist / 0.1) between
    the two centers, plus 1 when the predicted center lies in the truth."""
    cfg = rw.RewardConfig(correctness_kind="point_distance")
    worst = 0.0
    for _ in range(N_GROUPS):
        actions = rng.normal(0.0, 1.5, (1, int(rng.integers(1, 9)), 4))
        gt = _random_bbox(rng)
        (got,), _ = rw.score_groups(actions, gt, [cfg])
        gx, gy = (gt.x1 + gt.x2) / 2.0, (gt.y1 + gt.y2) / 2.0
        for u, score in zip(actions[0].tolist(), got.tolist()):
            x1, y1, x2, y2 = pol.action_to_bbox(u)
            px, py = (x1 + x2) / 2.0, (y1 + y2) / 2.0
            hit = gt.x1 <= px <= gt.x2 and gt.y1 <= py <= gt.y2
            expected = math.exp(-math.sqrt((px - gx) ** 2 + (py - gy) ** 2) / 0.1) + hit
            worst = max(worst, abs(score - expected))
    return OracleResult("point-distance", worst < 1e-12, f"max |diff| = {worst:.3e}")


def check_advantage(rng: np.random.Generator, n_cases: int = 500) -> OracleResult:
    """Normalization contract: mean 0, population std 1, zeros when degenerate."""
    for _ in range(n_cases):
        n = int(rng.integers(1, 9))
        r = rng.random(n) * 2.0
        a = pol.grpo_advantage(r, r.mean(keepdims=True))
        if n == 1 or r.std() < 1e-12:
            if (a != 0.0).any():
                return OracleResult("advantage-normalization", False, "degenerate input not zeroed")
            continue
        if abs(a.mean()) > 1e-9 or abs(a.std() - 1.0) > 1e-9:
            return OracleResult(
                "advantage-normalization", False,
                f"mean {a.mean():.2e}, std {a.std():.6f}",
            )
    a = pol.grpo_advantage(np.ones(4), np.ones(1))
    if (a != 0.0).any():
        return OracleResult("advantage-normalization", False, "constant rewards not zeroed")
    a = pol.grpo_advantage(np.array([0.0, 2.0]), np.ones(1))
    if abs(a[0] + 1.0) > 1e-12 or abs(a[1] - 1.0) > 1e-12:
        return OracleResult("advantage-normalization", False, f"[0,2] -> {a}")
    return OracleResult("advantage-normalization", True, f"{n_cases} cases + exact checks")


def _random_fixture(rng: np.random.Generator, feature_dim: int = 8, n: int = 4):
    """A batch of one run: theta, ref at the group's state, the group's
    actions and behavior log-probs, its shaped advantages."""
    state = rng.normal(0.0, 1.5, feature_dim)
    theta = GroundingPolicy(
        rng.normal(0.0, 0.4, (1, feature_dim, 4)),
        rng.normal(0.0, 0.3, (1, 4)),
        rng.uniform(-3.0, 0.0, (1, 4)),
    )
    ref = GroundingPolicy(
        theta.W + rng.normal(0.0, 0.1, (1, feature_dim, 4)),
        theta.b + rng.normal(0.0, 0.1, (1, 4)),
        np.clip(theta.log_std + rng.uniform(-0.3, 0.3, (1, 4)), -6.0, 1.0),
    )
    # Sampled from `ref`, differentiated at `theta`: the ratios are not 1.
    ref_at = ref.at(state)
    actions, logp = pol.sample_group(ref_at, rng.standard_normal((n, 4)))
    rewards = rng.random((1, n)) * 2.0
    advantages = pol.grpo_advantage(rewards, rewards.mean(axis=1, keepdims=True))
    shaped = advantages + float(rng.random())  # plus a random diversity bonus
    return theta, ref_at, actions, logp, shaped


def check_gradient(rng: np.random.Generator) -> OracleResult:
    """Analytic gradient vs central finite differences of the objective."""
    worst = 0.0
    for k in range(N_FIXTURES):
        beta = np.array([0.0 if k % 2 == 0 else 0.04])
        theta, ref, actions, logp, shaped = _random_fixture(rng)
        grad = pol.grad_objective(actions, logp, shaped, theta.at(ref.state), ref, beta)
        analytic = np.concatenate([g.ravel() for g in grad])

        flat = np.concatenate([theta.W.ravel(), theta.b.ravel(), theta.log_std.ravel()])
        fd = np.zeros_like(flat)
        nw = theta.W.size

        def unflatten(v):
            return GroundingPolicy(
                v[:nw].reshape(theta.W.shape), v[nw : nw + 4][None], v[nw + 4 :][None]
            )

        for i in range(flat.size):
            up = flat.copy(); up[i] += FD_STEP
            dn = flat.copy(); dn[i] -= FD_STEP
            fd[i] = (
                pol.objective(actions, logp, shaped, unflatten(up).at(ref.state), ref, beta)[0]
                - pol.objective(actions, logp, shaped, unflatten(dn).at(ref.state), ref, beta)[0]
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
        check_point_distance(np.random.default_rng(VERIFY_SEED + 5)),
    ]
