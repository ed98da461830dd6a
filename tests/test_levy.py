import numpy as np
import pytest
from scipy.integrate import quad

from gradcap.errors import DivergentMeasure, InvalidCutoffs
from gradcap.levy import (BVDensity, CompoundPoisson,
                          bounded_variation_error_bound, build_quadrature,
                          constant_density, moment_check, sample_jumps)


def bv_two_sided(**kw):
    base = dict(kappa=1.0, alpha=0.5, lambda_temper=0.0, z_min=1e-6,
                z_max=1.0, rays=((1.0,), (-1.0,)))
    base.update(kw)
    return BVDensity(**base)


def test_moment_check_single_atom():
    out = moment_check(CompoundPoisson(atoms=(((0.5,), 2.0),)))
    assert out == {"first_moment_small": 1.0, "mass_large": 0.0, "ok": True}


def test_moment_check_bv_closed_form():
    out = moment_check(bv_two_sided())
    # 2 * int_{1e-6}^{1} z * z^{-1.5} dz = 4 (1 - 1e-3), antiderivative 2 sqrt(z)
    expect = 4.0 * (1.0 - 1e-3)
    assert out["first_moment_small"] == pytest.approx(expect, rel=1e-12)
    assert out["mass_large"] == 0.0
    assert out["ok"]
    # adaptive-quadrature oracle agrees
    oracle, _ = quad(lambda z: z * z**-1.5, 1e-6, 1.0)
    assert out["first_moment_small"] == pytest.approx(2 * oracle, rel=1e-8)


def test_divergent_measure_rejected():
    with pytest.raises(DivergentMeasure):
        bv_two_sided(alpha=1.2)


def test_quadrature_atoms_pass_through():
    # every atom the simulation samples, |z| >= delta, is a node with its
    # mass, however long the jump; the atom below delta is dropped
    cp = CompoundPoisson(atoms=(((0.5,), 2.0), ((-1.5,), 1.0),
                                ((0.05,), 4.0), ((-2.5,), 0.5)))
    rule = build_quadrature(cp, 0.1)
    assert sorted(rule.nodes.ravel()) == [-2.5, -1.5, 0.5]
    assert sorted(rule.weights) == [0.5, 1.0, 2.0]
    assert rule.total_mass == cp.intensity_above(0.1) == 3.5


@pytest.mark.parametrize("delta", [1e-4, 1e-7])
def test_bv_quadrature_mass_is_the_sampled_intensity(delta):
    # the nodes cover [max(delta, z_min), z_max], the support sample_jumps
    # draws from, also past |z| = 2
    lev = bv_two_sided(z_max=3.0)
    rule = build_quadrature(lev, delta)
    r = np.abs(rule.nodes[:, 0])
    assert max(delta, lev.z_min) < r.min() and 2.0 < r.max() < lev.z_max
    # midpoint rule in log r at 16 nodes a decade: relative error about
    # alpha^2 dt^2 / 24 = 2e-4 for dt = ln(10) / 16
    assert rule.total_mass == pytest.approx(lev.intensity_above(delta),
                                            rel=1e-3)


def test_quadrature_discarded_mass_closed_form():
    # the quadrature drops the jumps below delta; per ray their first
    # moment is int_0^{1e-4} z^{-1/2} dz = 2e-2
    assert build_quadrature(bv_two_sided(), 1e-4).small_jump_cutoff == 1e-4
    assert bv_two_sided().small_first_moment(1e-4) == \
        pytest.approx(4e-2, rel=1e-12)


def test_invalid_cutoffs():
    for delta in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidCutoffs):
            build_quadrature(bv_two_sided(), delta)


def test_quadrature_consistency_compound_poisson():
    cp = CompoundPoisson(atoms=(((0.3,), 1.5), ((-0.8,), 0.7)))
    rule = build_quadrature(cp, 0.01)
    f = lambda z: np.sin(3 * z) + z**2
    quad_val = float(np.sum(rule.weights * f(rule.nodes[:, 0])))
    exact = 1.5 * f(0.3) + 0.7 * f(-0.8)
    assert quad_val == exact  # exact sums, bit for bit


def test_bv_quadrature_convergence_on_abs():
    lev = bv_two_sided()
    rule = build_quadrature(lev, 1e-4, n_per_decade=16)
    approx = float(np.sum(rule.weights * np.abs(rule.nodes[:, 0])))
    exact = 2 * 2 * (np.sqrt(1.0) - np.sqrt(1e-4))
    assert abs(approx - exact) / exact < 1e-3


def test_sample_jumps_poisson_count_and_reproducibility():
    cp = CompoundPoisson(atoms=(((0.5,), 2.0),))
    for seed in range(5):
        jumps = sample_jumps(cp, 0.01, 10.0, seed)
        assert 8 <= len(jumps) <= 36  # 3 sigma around Poisson(20)
    a = sample_jumps(cp, 0.01, 10.0, 42)
    b = sample_jumps(cp, 0.01, 10.0, 42)
    assert len(a) == len(b)
    assert all(x[0] == y[0] and np.array_equal(x[1], y[1])
               for x, y in zip(a, b))


def test_sample_jumps_empty_when_rate_zero():
    cp = CompoundPoisson(atoms=(((0.5,), 2.0),))
    assert sample_jumps(cp, 0.9, 10.0, 1) == []


def test_equal_atom_frequencies_within_ci():
    cp = CompoundPoisson(atoms=(((0.5,), 1.0), ((-1.5,), 1.0)))
    jumps = sample_jumps(cp, 0.01, 5000.0, 11)
    n = len(jumps)
    assert n > 9000  # rate 2 on [0, 5000]
    frac = np.mean([z[1][0] > 0 for z in jumps])
    ci = 3 * np.sqrt(0.25 / n)
    assert abs(frac - 0.5) <= ci


def test_bv_sampling_radial_law():
    lev = bv_two_sided(z_min=0.05, z_max=1.0)
    jumps = sample_jumps(lev, 0.05, 300.0, 5)
    r = np.array([abs(z[1][0]) for z in jumps])
    assert np.all((r >= 0.05) & (r <= 1.0))
    # mean radius oracle: int r nu / int nu on [0.05, 1]
    mass = 2 * (0.05**-0.5 - 1.0) / 0.5
    first = 2 * 2 * (1 - np.sqrt(0.05))
    expect = first / mass
    assert abs(np.mean(r) - expect) <= 4 * np.std(r) / np.sqrt(len(r))


def test_bounded_variation_error_bound():
    cp = CompoundPoisson(atoms=(((0.5,), 2.0),))
    assert bounded_variation_error_bound(cp, 0.1, 5.0) == 0.0
    lev = bv_two_sided()
    assert bounded_variation_error_bound(lev, 1e-4, 1.0) == \
        pytest.approx(4e-2, rel=1e-12)
    assert bounded_variation_error_bound(lev, 1e-4, 2.0) == \
        pytest.approx(8e-2, rel=1e-12)


def test_tempered_density_moments_finite():
    lev = BVDensity(kappa=1.0, alpha=0.3, lambda_temper=2.0, z_min=1e-5,
                    z_max=3.0, rays=((1.0,),))
    out = moment_check(lev)
    assert out["ok"]
    rule = build_quadrature(lev, 1e-3)
    assert rule.total_mass > 0
    jumps = sample_jumps(lev, 0.01, 50.0, 3)
    assert all(0.01 <= abs(z[1][0]) <= 3.0 for z in jumps)


def test_jump_density_range():
    s = constant_density(0.7)
    X = np.zeros((4, 1))
    assert np.allclose(s.eval(X, np.array([0.5])), 0.7)
    with pytest.raises(ValueError):
        constant_density(1.4)


def test_moment_check_ok_for_constructible_models():
    rng = np.random.default_rng(0)
    for _ in range(25):
        atoms = tuple(((float(rng.uniform(-2, 2)) or 0.5,),
                       float(rng.uniform(0.1, 3)))
                      for _ in range(rng.integers(1, 4)))
        assert moment_check(CompoundPoisson(atoms=atoms))["ok"]
        lev = BVDensity(kappa=float(rng.uniform(0.1, 2)),
                        alpha=float(rng.uniform(0.0, 0.95)),
                        lambda_temper=float(rng.choice([0.0, 1.0])),
                        z_min=float(rng.uniform(1e-6, 1e-3)),
                        z_max=float(rng.uniform(0.5, 3.0)),
                        rays=((1.0,), (-1.0,)))
        assert moment_check(lev)["ok"]


def test_atom_draws_are_generator_choice_draws():
    # the cached cdf must reproduce rng.choice(len(p), p=p) draw for draw
    # and leave the generator where choice leaves it
    meta = np.random.default_rng(7)
    for trial in range(50):
        k = int(meta.integers(1, 12))
        masses = meta.random(k) ** 3 + 1e-12
        sizes = meta.uniform(0.05, 2.0, k) * meta.choice((-1.0, 1.0), k)
        cp = CompoundPoisson(atoms=tuple(((z,), m)
                                         for z, m in zip(sizes, masses)))
        delta = float(meta.choice((0.0, 0.5)))
        keep = np.abs(sizes) >= delta
        if not keep.any():
            continue
        p = masses[keep] / masses[keep].sum()
        ours, ref = np.random.default_rng(trial), np.random.default_rng(trial)
        for n in (1, 3, 200):
            drawn = cp.sample_sizes(ours, n, delta)
            idx = ref.choice(len(p), size=n, p=p)
            assert np.array_equal(drawn[:, 0], sizes[keep][idx])
        assert ours.bit_generator.state == ref.bit_generator.state
