"""Noise-model and binding-overhead-model tests."""

import numpy as np
import pytest

from repro.perfmodel import DEVICE_SPECS, BindingOverheadModel, NoiseModel
from repro.perfmodel.noise import BLOCK_SIZE

#: Enough draws to cross two block boundaries.
BLOCK_DRAWS = 2500
#: Every noise sigma a device spec declares (0.01/0.02/0.03/0.06).
SPEC_SIGMAS = sorted({spec.noise_sigma for spec in DEVICE_SPECS.values()})


def _one_at_a_time_jitter(sigma, seed, count):
    """The per-draw log-normal formula the block draws must reproduce."""
    rng = np.random.default_rng(seed)
    mu = -0.5 * np.log1p(sigma**2)
    s = np.sqrt(np.log1p(sigma**2))
    return [float(np.exp(rng.normal(mu, s))) for _ in range(count)]


class TestNoiseModel:
    def test_zero_sigma_returns_one(self):
        noise = NoiseModel(0.0)
        assert all(noise.sample() == 1.0 for _ in range(10))

    def test_mean_near_one(self):
        noise = NoiseModel(0.05, seed=3)
        samples = [noise.sample() for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)

    def test_spread_matches_sigma(self):
        noise = NoiseModel(0.10, seed=4)
        samples = [noise.sample() for _ in range(5000)]
        assert np.std(samples) == pytest.approx(0.10, rel=0.15)

    def test_always_positive(self):
        noise = NoiseModel(0.5, seed=5)
        assert all(noise.sample() > 0 for _ in range(1000))

    def test_reset_restarts_sequence(self):
        noise = NoiseModel(0.1, seed=6)
        first = [noise.sample() for _ in range(5)]
        noise.reset()
        second = [noise.sample() for _ in range(5)]
        assert first == second

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    @pytest.mark.parametrize("sigma", SPEC_SIGMAS)
    def test_block_draws_equal_per_draw_formula(self, sigma):
        assert BLOCK_DRAWS > 2 * BLOCK_SIZE
        noise = NoiseModel(sigma, seed=11)
        samples = [noise.sample() for _ in range(BLOCK_DRAWS)]
        assert samples == _one_at_a_time_jitter(sigma, 11, BLOCK_DRAWS)

    @pytest.mark.parametrize("sigma", SPEC_SIGMAS)
    def test_reset_mid_block_discards_the_block(self, sigma):
        noise = NoiseModel(sigma, seed=3)
        for _ in range(BLOCK_SIZE // 2 + 7):
            noise.sample()
        noise.reset()
        samples = [noise.sample() for _ in range(BLOCK_DRAWS)]
        assert samples == _one_at_a_time_jitter(sigma, 3, BLOCK_DRAWS)


class TestBindingOverheadModel:
    def test_device_family_defaults(self):
        nvidia = BindingOverheadModel.for_device("gpu-nvidia")
        amd = BindingOverheadModel.for_device("gpu-amd")
        cpu = BindingOverheadModel.for_device("cpu")
        # AMD overhead is higher than NVIDIA (paper section 6.3.2).
        assert amd.base_overhead > nvidia.base_overhead > cpu.base_overhead

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            BindingOverheadModel.for_device("tpu")

    def test_sample_positive(self):
        model = BindingOverheadModel()
        assert all(model.sample() > 0 for _ in range(100))

    def test_sample_scales_with_arguments(self):
        model = BindingOverheadModel(jitter_sigma=0.0)
        assert model.sample(num_arguments=10) > model.sample(num_arguments=1)

    def test_relative_overhead_amortises(self):
        # Paper: ~30% for small kernels, <10% once kernels are long.
        model = BindingOverheadModel.for_device("gpu-nvidia")
        small = model.relative_overhead(kernel_time=12e-6)
        large = model.relative_overhead(kernel_time=1.4e-4)
        assert 0.2 < small < 0.4
        assert large < 0.1

    def test_relative_overhead_rejects_negative(self):
        with pytest.raises(ValueError):
            BindingOverheadModel().relative_overhead(-1.0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            BindingOverheadModel(base_overhead=-1e-6)

    @pytest.mark.parametrize("family", sorted(BindingOverheadModel.DEFAULTS))
    def test_block_draws_equal_per_draw_formula(self, family):
        model = BindingOverheadModel.for_device(family, seed=5)
        rng = np.random.default_rng(5)
        for call in range(BLOCK_DRAWS):
            num_arguments = call % 4
            mean = model.base_overhead + num_arguments * model.per_argument
            jitter = 1.0 + model.jitter_sigma * float(rng.standard_normal())
            expected = max(mean * jitter, 0.1 * mean)
            assert model.sample(num_arguments) == expected
