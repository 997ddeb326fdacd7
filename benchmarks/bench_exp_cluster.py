"""Figure test: cluster placement and HPA/VPA interplay (exp_cluster)."""


def test_exp_cluster_placement_and_interplay(pinned):
    result = pinned("exp_cluster")
    placement = {r["policy"]: r for r in result.tables["placement"].rows}
    static, view = placement["static"], placement["view"]
    # Inflated requests strand capacity under static packing; packing on
    # the live views places more pods on the same hardware, more densely.
    assert static["rejected"] > 0
    assert view["placed"] > static["placed"]
    assert view["density"] > static["density"]
    # Gang co-placement never strands a partial gang.
    assert placement["view-gang"]["gangs_partial"] == 0
    for row in placement.values():
        assert row["violations"] == 0

    interplay = {r["mode"]: r for r in result.tables["interplay"].rows}
    # Stacking both scaling axes oscillates at least as much as either.
    assert interplay["hpa+vpa"]["oscillations"] >= max(
        interplay["hpa"]["oscillations"], interplay["vpa"]["oscillations"])
    # Only the horizontal autoscalers add replicas.
    assert interplay["vpa"]["scale_outs"] == 0
    assert interplay["hpa"]["replicas_max"] > interplay["vpa"]["replicas_max"]
