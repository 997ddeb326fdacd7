"""Tests for Algorithm 2 (effective memory)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.effective_memory import (MAX_IMPACT_RATIO, MemorySample,
                                         step_effective_memory)
from repro.units import gib, mib

SOFT = gib(15)
HARD = gib(30)
LOW = gib(2)
HIGH = gib(4)


def sample(cfree, pfree=None, cmem=0, pmem=None):
    return MemorySample(cfree=cfree, pfree=pfree if pfree is not None else cfree,
                        cmem=cmem, pmem=pmem if pmem is not None else cmem)


class TestInitAndReset:
    def test_resets_to_soft_on_shortage(self):
        e = step_effective_memory(gib(25), soft_limit=SOFT, hard_limit=HARD,
                                  sample=sample(cfree=gib(1)),
                                  low_mark=LOW, high_mark=HIGH)
        assert e == SOFT

    def test_reset_at_exactly_low_mark(self):
        e = step_effective_memory(gib(25), soft_limit=SOFT, hard_limit=HARD,
                                  sample=sample(cfree=LOW),
                                  low_mark=LOW, high_mark=HIGH)
        assert e == SOFT

    def test_below_soft_raised_to_soft(self):
        e = step_effective_memory(0, soft_limit=SOFT, hard_limit=HARD,
                                  sample=sample(cfree=gib(50)),
                                  low_mark=LOW, high_mark=HIGH)
        assert e >= SOFT


class TestExpansion:
    def test_grows_ten_percent_of_headroom(self):
        e0 = SOFT
        e = step_effective_memory(e0, soft_limit=SOFT, hard_limit=HARD,
                                  sample=sample(cfree=gib(60), cmem=int(e0 * 0.95)),
                                  low_mark=LOW, high_mark=HIGH)
        assert e == e0 + int((HARD - e0) * 0.10)

    def test_no_growth_when_usage_low(self):
        e = step_effective_memory(SOFT, soft_limit=SOFT, hard_limit=HARD,
                                  sample=sample(cfree=gib(60), cmem=int(SOFT * 0.5)),
                                  low_mark=LOW, high_mark=HIGH)
        assert e == SOFT

    def test_no_growth_at_hard_limit(self):
        e = step_effective_memory(HARD, soft_limit=SOFT, hard_limit=HARD,
                                  sample=sample(cfree=gib(60), cmem=HARD),
                                  low_mark=LOW, high_mark=HIGH)
        assert e == HARD

    def test_never_exceeds_hard_limit(self):
        e = HARD - mib(1)
        out = step_effective_memory(e, soft_limit=SOFT, hard_limit=HARD,
                                    sample=sample(cfree=gib(60), cmem=e),
                                    low_mark=LOW, high_mark=HIGH)
        assert out <= HARD

    def test_growth_blocked_by_watermark_prediction(self):
        """Predicted free memory below HIGH_MARK blocks the expansion."""
        e0 = SOFT
        # cfree barely above high: a ~1.5 GiB increment would cross it.
        e = step_effective_memory(e0, soft_limit=SOFT, hard_limit=HARD,
                                  sample=sample(cfree=HIGH + mib(512),
                                                cmem=int(e0 * 0.95)),
                                  low_mark=LOW, high_mark=HIGH)
        assert e == e0

    def test_prediction_uses_previous_window_ratio(self):
        """A container whose growth frees little system memory (ratio < 1)
        is allowed to expand closer to the watermark."""
        e0 = SOFT
        delta = int((HARD - e0) * 0.10)
        # Previous window: container grew 2 GiB but free only dropped 0.5 GiB
        # (others were freeing). Impact ratio 0.25.
        s = MemorySample(cfree=HIGH + delta // 2, pfree=HIGH + delta // 2 + mib(512),
                         cmem=int(e0 * 0.95), pmem=int(e0 * 0.95) - gib(2))
        e = step_effective_memory(e0, soft_limit=SOFT, hard_limit=HARD, sample=s,
                                  low_mark=LOW, high_mark=HIGH)
        assert e == e0 + delta

    def test_conservative_ratio_when_no_usage_growth(self):
        """No growth in the previous window defaults the impact ratio to 1."""
        e0 = SOFT
        delta = int((HARD - e0) * 0.10)
        s = MemorySample(cfree=HIGH + delta - mib(1), pfree=HIGH + delta - mib(1),
                         cmem=int(e0 * 0.95), pmem=int(e0 * 0.95))
        e = step_effective_memory(e0, soft_limit=SOFT, hard_limit=HARD, sample=s,
                                  low_mark=LOW, high_mark=HIGH)
        assert e == e0  # ratio 1: cfree - delta == HIGH - 1MiB, not > HIGH

    def test_ratio_clamped(self):
        e0 = SOFT
        delta = int((HARD - e0) * 0.10)
        # Wild ratio 100 in the previous window would block everything;
        # clamped to MAX_IMPACT_RATIO = 10 it needs cfree > HIGH + 10*delta.
        assert MAX_IMPACT_RATIO == 10.0

        def step(cfree):
            s = MemorySample(cfree=cfree, pfree=cfree + 100 * delta,
                             cmem=int(e0 * 0.95), pmem=int(e0 * 0.95) - delta)
            return step_effective_memory(e0, soft_limit=SOFT, hard_limit=HARD,
                                         sample=s, low_mark=LOW, high_mark=HIGH)

        assert step(HIGH + 10 * delta + 1) == e0 + delta
        assert step(HIGH + 10 * delta) == e0


class TestConvergence:
    def test_converges_to_hard_with_plenty_free(self):
        """Single container on a big host: E ramps from soft to hard."""
        e = SOFT
        for _ in range(200):
            e = step_effective_memory(e, soft_limit=SOFT, hard_limit=HARD,
                                      sample=sample(cfree=gib(90), cmem=e),
                                      low_mark=LOW, high_mark=HIGH)
        assert e == HARD

    def test_equilibrium_below_hard_under_contention(self):
        """Five containers on 128 GiB stop growing near the watermark —
        the Fig. 12(c) ~24 GiB equilibrium."""
        total = gib(128)
        es = [SOFT] * 5
        for _ in range(300):
            used = sum(es)
            cfree = max(0, total - used)
            for i in range(5):
                es[i] = step_effective_memory(
                    es[i], soft_limit=SOFT, hard_limit=HARD,
                    sample=sample(cfree=cfree, cmem=es[i]),
                    low_mark=LOW, high_mark=HIGH)
        for e in es:
            assert gib(20) < e < gib(27)
        assert total - sum(es) >= HIGH - gib(2)

    @given(e=st.integers(min_value=0, max_value=HARD + gib(5)),
           cfree=st.integers(min_value=0, max_value=gib(100)),
           cmem=st.integers(min_value=0, max_value=HARD))
    def test_result_always_within_limits(self, e, cfree, cmem):
        out = step_effective_memory(e, soft_limit=SOFT, hard_limit=HARD,
                                    sample=sample(cfree=cfree, cmem=cmem),
                                    low_mark=LOW, high_mark=HIGH)
        assert SOFT <= out <= HARD

    def test_soft_above_hard_clamped(self):
        out = step_effective_memory(0, soft_limit=HARD + gib(1), hard_limit=HARD,
                                    sample=sample(cfree=gib(50)),
                                    low_mark=LOW, high_mark=HIGH)
        assert out == HARD
