"""Augmented instance, baseline, ring partition, and coreset sampling."""

from __future__ import annotations

import dataclasses
import math
from itertools import combinations

import pytest

from trimclust import (
    CoresetParams,
    SampleCheckConfig,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    coreset_size_bound,
    exact_kmedian,
    exact_outlier_oracle,
    ring_partition,
    sample_concentration_check,
    trimmed_cost,
    verify_ring_bounds,
    weighted_trimmed_cost,
)
from trimclust import coreset
from trimclust.coreset import _band_index
from trimclust.rng import generator_for
from conftest import line_instance, random_instance, shared_point_instance


def practical(s, epsilon=0.5, lam=0.1, tau=1.0):
    return CoresetParams(epsilon=epsilon, lam=lam, tau=tau, mode="practical", practical_s=s)


# ---------------------------------------------------------------------------
# augmented instance
# ---------------------------------------------------------------------------


def test_augmented_counts(rng):
    inst = random_instance(rng, 6, 4, k=2, m=1)
    aug = build_augmented_instance(inst)
    assert len(aug.facilities) == 10
    assert aug.k == 3 and aug.m == 0
    inst0 = random_instance(rng, 6, 4, k=2, m=0)
    aug0 = build_augmented_instance(inst0)
    assert aug0.k == 2 and len(aug0.facilities) == 10


def test_augmented_optimum_lower_bounds_original(rng):
    for _ in range(25):
        inst = random_instance(
            rng, int(rng.integers(3, 9)), int(rng.integers(1, 4)),
            k=int(rng.integers(1, 3)), m=int(rng.integers(0, 3)),
        )
        if inst.m > len(inst.clients):
            continue
        opt = exact_outlier_oracle(inst).cost
        aug = build_augmented_instance(inst)
        centers = exact_kmedian(aug.dist, aug.clients, None, aug.facilities, aug.k, aug.z)
        opt_aug = trimmed_cost(aug.dist, aug.clients, centers, 0, aug.z)
        assert opt_aug <= opt * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_colocated_is_free():
    inst = line_instance([0, 1, 2], [0, 1, 2], k=3, m=0)
    base = baseline_solve(inst)
    assert base.cost == 0.0 and base.method == "exact" and base.tau_guarantee == 1.0


def test_baseline_two_far_pairs():
    # X = {0,1,10,11}, facilities co-located, 2 centers
    inst = line_instance([0.0, 1.0, 10.0, 11.0], [0.0, 1.0, 10.0, 11.0], k=2, m=0)
    base = baseline_solve(inst)
    assert base.cost == 2.0
    xs = sorted(base.centers)
    assert xs[0] in (4, 5) and xs[1] in (6, 7)  # one from each pair


def test_baseline_exact_matches_brute(rng):
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(4, 13)), 3, k=2, m=1)
        aug = build_augmented_instance(inst)
        base = baseline_solve(aug)
        best = min(
            trimmed_cost(aug.dist, aug.clients, C, 0, aug.z)
            for C in combinations(aug.facilities, min(aug.k, len(aug.facilities)))
        )
        assert base.cost == pytest.approx(best, rel=1e-12)


def test_baseline_local_search_fallback(rng):
    inst = shared_point_instance(rng, 40, k=2, m=2)
    aug = build_augmented_instance(inst)
    base = baseline_solve(aug, exact_budget=10)
    assert base.method == "local_search" and base.tau_guarantee == 5.0
    assert base.cost >= 0.0 and len(base.centers) <= aug.k


def test_baseline_stopped_at_the_cap_claims_no_factor(rng, monkeypatch):
    # a search stopped at the iteration cap need not be a local optimum, so
    # the single-swap factor does not hold
    capped = classmethod(lambda cls: cls(kind="local_search", iteration_cap=1))
    monkeypatch.setattr(coreset.SolverHandle, "local_search", capped)
    aug = build_augmented_instance(shared_point_instance(rng, 40, k=2, m=2))
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        base = baseline_solve(aug, exact_budget=10)
    assert base.method == "local_search" and not base.converged
    assert base.tau_guarantee is None


def test_baseline_rejects_outliers():
    inst = line_instance([0, 1], [0], k=1, m=1)
    with pytest.raises(ValueError):
        baseline_solve(inst)


# ---------------------------------------------------------------------------
# ring partition
# ---------------------------------------------------------------------------


def test_rings_single_center_all_colocated():
    inst = line_instance([4, 4, 4], [4], k=1, m=0)
    rp = ring_partition(inst, inst.facilities, tau=1.0)
    assert rp.delta0 == 0.0 and rp.R == 0.0
    assert set(rp.rings) == {(0, 0)}
    assert rp.rings[(0, 0)] == (0, 1, 2)


def test_rings_hand_example():
    # clients at 0.5, 3, 20; single center at 0; tau=1, z=1
    inst = line_instance([0.5, 3.0, 20.0], [0.0], k=1, m=0)
    rp = ring_partition(inst, inst.facilities, tau=1.0)
    assert rp.delta0 == pytest.approx(23.5)
    assert rp.R == pytest.approx(23.5 / 3)
    assert rp.phi == 2
    assert rp.rings[(0, 0)] == (0, 1)  # 0.5 and 3 within R
    assert rp.rings[(0, 2)] == (2,)  # 20 in (2R, 4R]
    assert rp.assignment == {0: 0, 1: 0, 2: 0}


def test_rings_closed_upper_boundary():
    # center at 0; R = delta0/(tau*n).  Distances 1, 3, 5 with tau=2 give
    # delta0 = 9 and R = 1.5, so the middle client sits at exactly 2R.
    inst = line_instance([1.0, 3.0, 5.0], [0.0], k=1, m=0)
    rp = ring_partition(inst, inst.facilities, tau=2.0)
    assert rp.R == 1.5
    assert inst.dist.d(1, 3) == 2 * rp.R
    band_of_1 = next(j for (i, j), pts in rp.rings.items() if 1 in pts)
    assert band_of_1 == 1  # exactly 2^1 R belongs to band 1, not band 2


def test_band_index_beyond_outermost_band_is_a_named_error():
    # the outermost band 2**phi R tolerates relative rounding of 1e-9, no more
    assert _band_index(8.0 * (1 + 1e-10), 1.0, 3) == 3
    with pytest.raises(RuntimeError, match=r"exceeds the outermost band 2\*\*3"):
        _band_index(8.0 * (1 + 1e-6), 1.0, 3)


def test_rings_partition_properties(rng):
    for _ in range(10):
        inst = random_instance(rng, 30, 5, k=2, m=2, z=float(rng.choice([1.0, 2.0])))
        aug = build_augmented_instance(inst)
        base = baseline_solve(aug)
        rp = ring_partition(inst, base.centers, tau=1.0)
        all_pts = sorted(p for pts in rp.rings.values() for p in pts)
        assert all_pts == sorted(inst.clients)  # disjoint cover
        for (i, j), pts in rp.rings.items():
            assert 0 <= j <= rp.phi
            for p in pts:
                d = inst.dist.d(p, rp.baseline[i])
                assert d <= 2.0**j * rp.R * (1 + 1e-9)
                if j > 0:
                    assert d > 2.0 ** (j - 1) * rp.R * (1 - 1e-9)
        for p, i in rp.assignment.items():
            dmin = min(inst.dist.d(p, c) for c in rp.baseline)
            assert inst.dist.d(p, rp.baseline[i]) == pytest.approx(dmin)


# ---------------------------------------------------------------------------
# ring-sum bounds
# ---------------------------------------------------------------------------


def test_ring_bounds_degenerate_zero():
    inst = line_instance([4, 4], [4], k=1, m=0)
    rp = ring_partition(inst, inst.facilities, tau=1.0)
    rep = verify_ring_bounds(rp, inst)
    assert rep.radius_sum == 0.0 and rep.diameter_sum == 0.0 and rep.passed


@pytest.mark.parametrize("z", [1.0, 2.0])
def test_ring_bounds_random(rng, z):
    for _ in range(25):
        inst = random_instance(
            rng, int(rng.integers(5, 40)), int(rng.integers(2, 6)),
            k=int(rng.integers(1, 3)), m=int(rng.integers(0, 3)), z=z,
        )
        aug = build_augmented_instance(inst)
        base = baseline_solve(aug, exact_budget=3000)
        rp = ring_partition(inst, base.centers, tau=1.0)
        rep = verify_ring_bounds(rp, inst)
        assert rep.passed, rep
        factor = 1 + 2**z
        assert rep.radius_bound == pytest.approx(factor * rp.delta0)
        assert rep.diameter_bound == pytest.approx(2**z * factor * rp.delta0)


# ---------------------------------------------------------------------------
# coreset construction
# ---------------------------------------------------------------------------


def _pipeline(inst, s, seed=7, tau=1.0):
    params = practical(s, tau=tau)
    aug = build_augmented_instance(inst)
    base = baseline_solve(aug, exact_budget=3000)
    rp = ring_partition(inst, base.centers, tau)
    cs = build_coreset(rp, params, generator_for(seed, 1, 0))
    return rp, cs


def test_coreset_lossless_when_rings_small(rng):
    inst = random_instance(rng, 15, 4, k=2, m=1)
    rp, cs = _pipeline(inst, s=20)
    assert cs.lossless
    assert sorted(cs.union.points) == sorted(inst.clients)
    assert all(w == 1 for w in cs.union.weights)


def test_coreset_split_arithmetic():
    # one ring of 7 points, s=3: 7 mod 3 = 1 verbatim + 3 draws at weight 2
    inst = line_instance([10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 0.0], [0.0], k=1, m=0)
    # clients: seven near 10 and one at the facility; baseline (0.0) keeps all
    rp = ring_partition(inst, inst.facilities, tau=1.0)
    big_ring = max(rp.rings.values(), key=len)
    assert len(big_ring) == 7
    params = practical(3)
    cs = build_coreset(rp, params, generator_for(3, 1, 0))
    key = next(k for k, v in rp.rings.items() if len(v) == 7)
    group = cs.groups[key]
    assert not cs.is_small[key]
    assert len(group) == 4  # 1 verbatim + 3 draws
    assert sorted(group.weights) == [1, 2, 2, 2]
    assert group.total_weight == 7
    assert set(group.points) <= set(big_ring)


def test_coreset_weight_conservation(rng):
    for _ in range(15):
        inst = random_instance(rng, int(rng.integers(10, 60)), 4, k=2, m=1)
        s = int(rng.integers(2, 12))
        rp, cs = _pipeline(inst, s=s, seed=int(rng.integers(1 << 20)))
        for key, pts in rp.rings.items():
            assert cs.groups[key].total_weight == len(pts)
            assert len(cs.groups[key]) <= 2 * s
        assert cs.total_weight == len(inst.clients)


def test_coreset_deterministic(rng):
    inst = random_instance(rng, 50, 4, k=2, m=1)
    _, cs1 = _pipeline(inst, s=5, seed=99)
    _, cs2 = _pipeline(inst, s=5, seed=99)
    assert cs1.union == cs2.union and cs1.entry_rings == cs2.entry_rings
    _, cs3 = _pipeline(inst, s=5, seed=100)
    assert cs1.union != cs3.union  # a different stream almost surely differs


def test_coreset_size_bound_holds(rng):
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(20, 80)), 4, k=2, m=2)
        s = int(rng.integers(2, 10))
        rp, cs = _pipeline(inst, s=s, seed=int(rng.integers(1 << 20)))
        assert len(cs) <= coreset_size_bound(s, rp.k, rp.m, rp.phi)


def test_lossless_coreset_preserves_split_costs(rng):
    # with every ring small the coreset IS the data: per-ring trimmed sums match
    inst = random_instance(rng, 12, 4, k=2, m=2)
    rp, cs = _pipeline(inst, s=len(inst.clients))
    assert cs.lossless
    keys = sorted(rp.rings)
    sizes = [len(rp.rings[key]) for key in keys]
    for C in combinations(inst.facilities, inst.k):
        for split in _splits(len(keys), inst.m):
            if any(t > sz for t, sz in zip(split, sizes)):
                continue  # eviction counts above a ring's population are out of domain
            lhs = math.fsum(
                trimmed_cost(inst.dist, rp.rings[key], C, t, inst.z)
                for key, t in zip(keys, split)
            )
            rhs = math.fsum(
                weighted_trimmed_cost(inst.dist, *cs.groups[key].as_arrays(), C, t, inst.z)
                for key, t in zip(keys, split)
            )
            assert lhs == rhs


def _splits(slots, total):
    """All nonnegative integer tuples of length `slots` summing to <= total."""
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _splits(slots - 1, total - first):
            yield (first,) + rest


def test_sampled_coreset_event_fraction(rng):
    # empirical form of the cost-preservation event: with a moderate sample
    # size, the relative deviation stays within epsilon for most seeds
    inst = random_instance(rng, 120, 4, k=1, m=1, dim=2)
    params = practical(16, epsilon=0.35, lam=0.25)
    aug = build_augmented_instance(inst)
    base = baseline_solve(aug, exact_budget=3000)
    rp = ring_partition(inst, base.centers, params.tau)
    keys = sorted(rp.rings)
    seeds = range(40)
    ok = 0
    for seed in seeds:
        cs = build_coreset(rp, params, generator_for(seed, 1, 0))
        good = True
        for C in combinations(inst.facilities, inst.k):
            for split in _splits(len(keys), inst.m):
                lhs = math.fsum(
                    trimmed_cost(inst.dist, rp.rings[key], C, t, inst.z)
                    for key, t in zip(keys, split)
                )
                t_eff = [
                    min(t, len(cs.groups[key]))  # a tiny sampled ring may not have t entries
                    for key, t in zip(keys, split)
                ]
                rhs = math.fsum(
                    weighted_trimmed_cost(
                        inst.dist, *cs.groups[key].as_arrays(), C, t, inst.z
                    )
                    for key, t in zip(keys, t_eff)
                )
                if abs(lhs - rhs) > params.epsilon * lhs:
                    good = False
                    break
            if not good:
                break
        ok += good
    assert ok / len(seeds) >= 1 - params.lam


# ---------------------------------------------------------------------------
# parameter formulas
# ---------------------------------------------------------------------------


def test_theory_mode_sample_size():
    p = CoresetParams(epsilon=0.5, lam=0.1, tau=2.0, mode="theory")
    n, k, m = 100, 2, 1
    want = math.ceil(1.0 * 4.0 / 0.25 * (1 + 2 * math.log(100) + math.log(10)))
    assert p.sample_size(n, k, m, 1.0) == want
    assert p.sample_size(n, k, m, 2.0) == math.ceil(want_base(2.0) * 2.0**18)


def want_base(z):
    return 1.0 * 4.0 / 0.25 * (1 + 2 * math.log(100) + math.log(10))


def test_params_validation():
    with pytest.raises(ValueError):
        CoresetParams(epsilon=1.5, practical_s=5)
    with pytest.raises(ValueError):
        CoresetParams(mode="practical", practical_s=None)
    with pytest.raises(ValueError):
        CoresetParams(tau=0.5, practical_s=5)


def test_sample_size_refuses_practical_s_cleared_after_construction():
    # the dataclass is frozen, so the check at construction is the only one needed
    params = CoresetParams(mode="practical", practical_s=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.practical_s = None
    assert params.sample_size(10, 2, 1, 1.0) == 5


# ---------------------------------------------------------------------------
# concentration harness
# ---------------------------------------------------------------------------


def test_concentration_identity_sample(rng):
    # a full-size subset sample is V itself: zero deviation at every t
    inst = random_instance(rng, 40, 3, k=1, m=0)
    lam_p = 0.05
    xi = math.sqrt(4 * (2 + math.log(2 / lam_p)) / 40)  # makes s' exactly 40
    cfg = SampleCheckConfig(xi=xi * 1.001, q=2, lambda_prime=lam_p)
    assert cfg.sample_size == 40
    rep = sample_concentration_check(
        inst.dist, inst.clients, inst.facilities, cfg, trials=20, rng=rng
    )
    assert rep.max_deviation == 0.0 and rep.violations == 0


def test_concentration_rejects_small_population(rng):
    inst = random_instance(rng, 10, 3, k=1, m=0)
    cfg = SampleCheckConfig(xi=0.3, q=2, lambda_prime=0.05)
    assert cfg.sample_size > 10
    with pytest.raises(ValueError):
        sample_concentration_check(inst.dist, inst.clients, inst.facilities, cfg, 5, rng)


def test_concentration_rejects_q_above_population(rng):
    # trimming more points than V has would read the prefix sums from the end
    inst = line_instance([0, 1, 2, 3, 4, 5], [10], k=1, m=0)
    cfg = SampleCheckConfig(xi=10, q=8, lambda_prime=0.5)
    assert cfg.sample_size <= 6
    with pytest.raises(ValueError, match=r"q = 8 exceeds \|V\| = 6"):
        sample_concentration_check(inst.dist, inst.clients, inst.facilities, cfg, 5, rng)
    # q = |V| may trim every point
    cfg = SampleCheckConfig(xi=10, q=6, lambda_prime=0.5)
    rep = sample_concentration_check(inst.dist, inst.clients, inst.facilities, cfg, 5, rng)
    assert rep.trials == 5


@pytest.mark.parametrize("z", [0.5, math.nan, math.inf])
def test_concentration_config_rejects_z_outside_one_to_inf(z):
    with pytest.raises(ValueError, match="z must be >= 1 and finite"):
        SampleCheckConfig(xi=0.5, q=0, lambda_prime=0.1, z=z)


def test_concentration_violations_rare(rng):
    inst = random_instance(rng, 300, 3, k=1, m=0, dim=2)
    cfg = SampleCheckConfig(xi=0.3, q=2, lambda_prime=0.05)
    assert cfg.sample_size <= 300
    rep = sample_concentration_check(
        inst.dist, inst.clients, inst.facilities, cfg, trials=200, rng=rng
    )
    assert rep.violation_fraction <= cfg.lambda_prime + 3 * math.sqrt(
        cfg.lambda_prime / 200
    )
    assert rep.diagnostics["diam_V"] > 0


def test_concentration_plain_mean_case(rng):
    inst = random_instance(rng, 100, 3, k=1, m=0)
    cfg = SampleCheckConfig(xi=0.5, q=0, lambda_prime=0.1)
    rep = sample_concentration_check(
        inst.dist, inst.clients, inst.facilities, cfg, trials=100, rng=rng
    )
    assert rep.violations == 0  # plain-mean concentration is very comfortable here
