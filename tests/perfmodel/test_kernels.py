"""Kernel cost-model tests."""

import pytest

from repro.perfmodel import (
    KernelCost,
    blas1_cost,
    conversion_cost,
    dot_cost,
    factorization_cost,
    spmv_cost,
    trsv_cost,
)


class TestKernelCost:
    def test_addition_combines_components(self):
        a = KernelCost("a", flops=10, bytes=100, launches=1)
        b = KernelCost("b", flops=5, bytes=50, launches=2)
        c = a + b
        assert c.flops == 15
        assert c.bytes == 150
        assert c.launches == 3

    def test_scaled(self):
        c = KernelCost("a", flops=10, bytes=100, launches=2).scaled(3)
        assert c.flops == 30
        assert c.bytes == 300
        assert c.launches == 6


class TestSpmvCost:
    def test_flops_are_two_per_nonzero(self):
        cost = spmv_cost("csr", 100, 100, 500, 4, 4)
        assert cost.flops == 1000

    def test_multi_rhs_scales_flops(self):
        one = spmv_cost("csr", 100, 100, 500, 4, 4, num_rhs=1)
        four = spmv_cost("csr", 100, 100, 500, 4, 4, num_rhs=4)
        assert four.flops == 4 * one.flops

    def test_dtype_selected_by_value_bytes(self):
        assert spmv_cost("csr", 10, 10, 20, 2, 4).dtype_name == "float16"
        assert spmv_cost("csr", 10, 10, 20, 4, 4).dtype_name == "float32"
        assert spmv_cost("csr", 10, 10, 20, 8, 8).dtype_name == "float64"

    def test_coo_moves_more_bytes_than_csr(self):
        # COO stores two index arrays and uses atomics on the output.
        csr = spmv_cost("csr", 1000, 1000, 10000, 4, 4)
        coo = spmv_cost("coo", 1000, 1000, 10000, 4, 4)
        assert coo.bytes > csr.bytes

    def test_load_balance_adds_a_launch(self):
        classical = spmv_cost("csr", 100, 100, 500, 4, 4, strategy="classical")
        balanced = spmv_cost(
            "csr", 100, 100, 500, 4, 4, strategy="load_balance"
        )
        assert balanced.launches == classical.launches + 1

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown CSR strategy"):
            spmv_cost("csr", 10, 10, 20, 4, 4, strategy="magic")

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown SpMV format"):
            spmv_cost("bsr", 10, 10, 20, 4, 4)

    def test_negative_dimensions_raise(self):
        with pytest.raises(ValueError):
            spmv_cost("csr", -1, 10, 20, 4, 4)

    def test_all_formats_accepted(self):
        for fmt in ("csr", "coo", "ell", "sellp", "hybrid", "sparsity_csr",
                    "dense", "diagonal"):
            assert spmv_cost(fmt, 64, 64, 256, 4, 4).bytes > 0

    def test_wider_values_move_more_bytes(self):
        narrow = spmv_cost("csr", 100, 100, 1000, 4, 4)
        wide = spmv_cost("csr", 100, 100, 1000, 8, 4)
        assert wide.bytes > narrow.bytes


class TestOtherKernels:
    def test_dot_has_two_launches(self):
        assert dot_cost(1000, 8).launches == 2

    def test_blas1_vector_count_scales_bytes(self):
        two = blas1_cost("copy", 1000, 8, 2)
        three = blas1_cost("axpy", 1000, 8, 3)
        assert three.bytes == 1.5 * two.bytes

    def test_trsv_has_many_launches_for_big_matrices(self):
        small = trsv_cost(64, 640, 8, 4)
        large = trsv_cost(1 << 20, 10 << 20, 8, 4)
        assert large.launches > small.launches

    def test_factorization_kinds(self):
        for kind in ("ilu0", "ic0", "jacobi"):
            assert factorization_cost(kind, 100, 1000, 8, 4).bytes > 0
        with pytest.raises(ValueError):
            factorization_cost("qr", 100, 1000, 8, 4)

    def test_conversion_cost_positive(self):
        assert conversion_cost("csr", "coo", 100, 1000, 8, 4).bytes > 0


#: One valid call of each memoised constructor, and the same call made
#: invalid by a negative size or an unsupported value width.
MEMOISED_CALLS = {
    "spmv": (spmv_cost, ("csr", 10, 10, 30, 8, 4),
             [("csr", -1, 10, 30, 8, 4), ("csr", 10, 10, 30, 3, 4)]),
    "blas1": (blas1_cost, ("axpy", 10, 8, 3),
              [("axpy", -1, 8, 3), ("axpy", 10, 16, 3)]),
    "dot": (dot_cost, (10, 8), [(-1, 8), (10, 1)]),
    "trsv": (trsv_cost, (10, 30, 8, 4), [(-1, 30, 8, 4), (10, 30, 6, 4)]),
}


class TestMemoisedConstructors:
    @pytest.mark.parametrize("name", sorted(MEMOISED_CALLS))
    def test_repeat_calls_share_one_frozen_cost(self, name):
        constructor, args, _ = MEMOISED_CALLS[name]
        assert constructor(*args) is constructor(*args)
        with pytest.raises(AttributeError):
            constructor(*args).flops = 0.0

    @pytest.mark.parametrize("name", sorted(MEMOISED_CALLS))
    def test_invalid_arguments_raise_on_every_call(self, name):
        constructor, args, invalid = MEMOISED_CALLS[name]
        for bad in invalid:
            for _ in range(3):
                with pytest.raises(ValueError):
                    constructor(*bad)
            constructor(*args)  # a valid call in between changes nothing
