"""Synthetic generator contracts: determinism and designed statistics."""

import numpy as np
import pytest

from distreg import (
    GALLERY_SCENARIOS,
    make_mean_task,
    make_multisource_task,
    make_two_sample_pair,
    make_variance_task,
)


class TestVarianceTask:
    def test_deterministic(self):
        a = make_variance_task(10, 5, 2, seed=3)
        b = make_variance_task(10, 5, 2, seed=3)
        assert a.bag_ids == b.bag_ids
        np.testing.assert_array_equal(a.targets, b.targets)
        for x, y in zip(a.bags, b.bags):
            np.testing.assert_array_equal(x.instances, y.instances)

    def test_target_is_instance_spread(self):
        data = make_variance_task(50, 400, 3, seed=4)
        for bag, y in zip(data.bags, data.targets):
            assert bag.instances.std() == pytest.approx(y, rel=0.15)

    def test_bag_means_near_zero(self):
        data = make_variance_task(50, 400, 3, seed=5)
        means = np.array([b.instances.mean(axis=0) for b in data.bags])
        # mean of N(0, s^2/400) entries: a couple of standard errors at most
        assert np.max(np.abs(means)) <= 4 * 2.0 / np.sqrt(400)


class TestMeanTask:
    def test_zero_noise_is_exactly_linear_in_bag_means(self):
        data = make_mean_task(30, 10, 3, noise=0.0, seed=6)
        means = np.array([b.instances.mean(axis=0) for b in data.bags])
        design = np.hstack([means, np.ones((30, 1))])
        coef, *_ = np.linalg.lstsq(design, data.targets, rcond=None)
        residual = design @ coef - data.targets
        assert np.max(np.abs(residual)) <= 1e-10

    def test_noise_parameter_perturbs_targets(self):
        clean = make_mean_task(20, 10, 3, noise=0.0, seed=7)
        noisy = make_mean_task(20, 10, 3, noise=0.5, seed=7)
        assert not np.allclose(clean.targets, noisy.targets)

    def test_noise_that_makes_the_targets_overflow_named(self):
        # no numpy warning: the suite makes it an error
        with pytest.raises(ValueError, match=r"^noise 1e\+308 makes the targets overflow$"):
            make_mean_task(80, 30, 4, noise=1e308, seed=0)


class TestMultisourceTask:
    def test_structure(self):
        ms = make_multisource_task(25, dim_first=3, dim_second=2, seed=8)
        assert ms.n_sources == 2
        assert ms.dims == (3, 2)
        assert ms.n_bags == 25
        sizes_one = {b.n_instances for b in ms.sources[0].bags}
        sizes_two = {b.n_instances for b in ms.sources[1].bags}
        assert len(sizes_one) > 1 and len(sizes_two) > 1

    def test_deterministic(self):
        a = make_multisource_task(10, seed=9)
        b = make_multisource_task(10, seed=9)
        np.testing.assert_array_equal(a.targets, b.targets)
        for sa, sb in zip(a.sources, b.sources):
            for x, y in zip(sa.bags, sb.bags):
                np.testing.assert_array_equal(x.instances, y.instances)


class TestTwoSampleGallery:
    def test_scenario_a_shifts_means(self):
        x, y = make_two_sample_pair("a", 2000, seed=10, shift=1.0)
        assert abs(x.mean() - y.mean()) > 0.8

    def test_scenario_b_matches_means_changes_variance(self):
        x, y = make_two_sample_pair("b", 2000, seed=11, scale_ratio=2.0)
        assert abs(x.mean() - y.mean()) < 0.1
        assert y.var() / x.var() == pytest.approx(4.0, rel=0.25)

    def test_scenario_c_matches_first_two_moments(self):
        x, y = make_two_sample_pair("c", 4000, seed=12)
        assert abs(x.mean() - y.mean()) < 0.1
        assert y.var() / x.var() == pytest.approx(1.0, rel=0.15)

    def test_scenario_d_separates_in_the_mean(self):
        # squaring moves the variance gap of scenario b into the first moment
        b_x, b_y = make_two_sample_pair("b", 4000, seed=13)
        assert abs(b_x.mean() - b_y.mean()) < 0.1
        x, y = make_two_sample_pair("d", 4000, seed=13)
        assert abs(x.mean() - y.mean()) > 1.0
        np.testing.assert_allclose(x, b_x**2)
        np.testing.assert_allclose(y, b_y**2)

    def test_all_scenarios_shapes(self):
        for scenario in GALLERY_SCENARIOS:
            x, y = make_two_sample_pair(scenario, 50, seed=14)
            assert x.shape == (50, 1) and y.shape == (50, 1)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            make_two_sample_pair("q", 10, seed=0)
