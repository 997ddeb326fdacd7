"""Tests for Algorithm 1 (effective CPU)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.effective_cpu import (CpuBounds, CpuViewParams, compute_cpu_bounds,
                                      step_effective_cpu)
from repro.kernel.cgroup import CgroupRoot
from repro.kernel.cpu import HostCpus


def _cg(shares=1024, quota_cores=None, cpuset=None, ncpus=20):
    root = CgroupRoot(HostCpus(ncpus))
    cg = root.root.create_child("c")
    cg.set_cpu_shares(shares)
    if quota_cores is not None:
        cg.set_cpu_quota(int(quota_cores * 100_000), 100_000)
    if cpuset is not None:
        cg.set_cpuset(cpuset)
    return cg


class TestComputeBounds:
    def test_unconstrained_single_container(self):
        cg = _cg()
        b = compute_cpu_bounds(cg, 1024, 20)
        assert b.lower == 20 and b.upper == 20

    def test_share_lower_bound_five_equal(self):
        """Fig. 6's setup: five equal containers on 20 cores -> lower 4."""
        cg = _cg()
        b = compute_cpu_bounds(cg, 5 * 1024, 20)
        assert b.lower == 4
        assert b.upper == 20

    def test_share_lower_bound_rounds_up(self):
        cg = _cg()
        b = compute_cpu_bounds(cg, 3 * 1024, 20)
        assert b.lower == 7  # ceil(20/3)

    def test_quota_caps_both_bounds(self):
        cg = _cg(quota_cores=4)
        b = compute_cpu_bounds(cg, 1024, 20)
        assert b == CpuBounds(lower=4, upper=4)

    def test_fractional_quota_floors(self):
        cg = _cg(quota_cores=2.5)
        b = compute_cpu_bounds(cg, 1024, 20)
        assert b.upper == 2

    def test_subcore_quota_still_one_cpu(self):
        cg = _cg(quota_cores=0.5)
        b = compute_cpu_bounds(cg, 1024, 20)
        assert b.lower == 1 and b.upper == 1

    def test_cpuset_caps_upper(self):
        cg = _cg(cpuset="0-1")
        b = compute_cpu_bounds(cg, 2 * 1024, 20)
        assert b.upper == 2
        assert b.lower == 2  # min(inf, 2, ceil(10)) = 2

    def test_weighted_shares(self):
        cg = _cg(shares=2048)
        b = compute_cpu_bounds(cg, 4096, 20)
        assert b.lower == 10  # 2048/4096 * 20

    def test_bounds_never_exceed_host(self):
        cg = _cg()
        b = compute_cpu_bounds(cg, 1024, 8)
        assert b.upper == 8

    @given(
        shares=st.integers(min_value=2, max_value=8192),
        others=st.lists(st.integers(min_value=2, max_value=8192), max_size=9),
        quota=st.one_of(st.none(), st.floats(min_value=0.1, max_value=32)),
        mask_size=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
    )
    def test_bounds_invariants(self, shares, others, quota, mask_size):
        cpuset = f"0-{mask_size - 1}" if mask_size else None
        cg = _cg(shares=shares, quota_cores=quota, cpuset=cpuset)
        b = compute_cpu_bounds(cg, shares + sum(others), 20)
        assert 1 <= b.lower <= b.upper <= 20
        if quota is not None:
            assert b.upper <= max(1, int(quota))
        if mask_size is not None:
            assert b.upper <= mask_size


class TestStepEffectiveCpu:
    BOUNDS = CpuBounds(lower=4, upper=10)

    def test_grows_when_busy_and_slack(self):
        e = step_effective_cpu(4, self.BOUNDS, usage=3.9, capacity_window=4.0,
                               slack=5.0)
        assert e == 5

    def test_no_growth_when_underutilized(self):
        e = step_effective_cpu(4, self.BOUNDS, usage=2.0, capacity_window=4.0,
                               slack=5.0)
        assert e == 4

    def test_no_growth_at_upper_bound(self):
        e = step_effective_cpu(10, self.BOUNDS, usage=10.0, capacity_window=10.0,
                               slack=5.0)
        assert e == 10

    def test_shrinks_without_slack(self):
        e = step_effective_cpu(7, self.BOUNDS, usage=7.0, capacity_window=7.0,
                               slack=0.0)
        assert e == 6

    def test_never_below_lower(self):
        e = step_effective_cpu(4, self.BOUNDS, usage=4.0, capacity_window=4.0,
                               slack=0.0)
        assert e == 4

    def test_changes_limited_to_one(self):
        e = step_effective_cpu(4, self.BOUNDS, usage=100.0, capacity_window=4.0,
                               slack=100.0)
        assert e == 5  # not jumping straight to upper

    def test_out_of_range_value_clamped_first(self):
        e = step_effective_cpu(20, self.BOUNDS, usage=0.0, capacity_window=1.0,
                               slack=10.0)
        assert e == 10
        e = step_effective_cpu(1, self.BOUNDS, usage=0.0, capacity_window=1.0,
                               slack=10.0)
        assert e == 4

    def test_custom_threshold(self):
        params = CpuViewParams(util_threshold=0.5)
        e = step_effective_cpu(4, self.BOUNDS, usage=2.4, capacity_window=4.0,
                               slack=1.0, params=params)
        assert e == 5

    def test_zero_capacity_window(self):
        e = step_effective_cpu(4, self.BOUNDS, usage=0.0, capacity_window=0.0,
                               slack=1.0)
        assert e == 4

    def test_converges_down_to_lower(self):
        """Decrementing until slack appears: repeated no-slack steps floor out."""
        e = 10
        for _ in range(20):
            e = step_effective_cpu(e, self.BOUNDS, usage=float(e),
                                   capacity_window=float(e), slack=0.0)
        assert e == 4

    @given(e=st.integers(min_value=1, max_value=20),
           usage=st.floats(min_value=0, max_value=100),
           slack=st.floats(min_value=0, max_value=100))
    def test_result_always_in_bounds(self, e, usage, slack):
        out = step_effective_cpu(e, self.BOUNDS, usage=usage,
                                 capacity_window=max(e, 1) * 1.0, slack=slack)
        assert self.BOUNDS.lower <= out <= self.BOUNDS.upper
        assert abs(out - max(self.BOUNDS.lower, min(self.BOUNDS.upper, e))) <= 1
