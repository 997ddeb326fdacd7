"""Figure test: kernel policy bundles and mid-run hot-swap (exp_policy)."""


def test_exp_policy_bundles_and_hotswap(pinned):
    result = pinned("exp_policy")
    bundles = {r["bundle"]: r for r in result.tables["bundles"].rows}
    default, burstable, intent = (bundles["default"], bundles["burstable"],
                                  bundles["intent"])
    # Quotas as burst ceilings: throttling collapses, CPU time rises.
    assert burstable["throttled_time"] < default["throttled_time"]
    assert burstable["cpu_time"] > default["cpu_time"]
    # Intent-ordered reclaim moves swap off the heap-tagged hogs onto
    # scratch at the same total reclaim volume.
    assert intent["swapped_mib"] == default["swapped_mib"]
    assert intent["swap_heap_mib"] < default["swap_heap_mib"]
    assert intent["swap_scratch_mib"] > default["swap_scratch_mib"]
    for row in bundles.values():
        assert row["ooms"] == 0
        assert abs(row["conservation_err"]) < 1e-9

    # Every leg of the swap path ran, and a self-swap changes nothing.
    legs = result.tables["hotswap"].rows
    assert [r["bundle"] for r in legs] == ["default", "burstable", "default"]
    assert any("self-swap is snapshot-identical" in n for n in result.notes)
