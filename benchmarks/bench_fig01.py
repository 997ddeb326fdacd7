"""Figure test: Figure 1 (DockerHub census)."""


def test_fig01_dockerhub_census(pinned):
    result = pinned("fig01")
    census = result.tables["census"]
    assert sum(census.column("total")) == 100
    assert sum(census.column("affected")) == 62
    # All Java and PHP images are affected; half of C.
    assert census.row_for("language", "java")["unaffected"] == 0
    assert census.row_for("language", "php")["unaffected"] == 0
    c_row = census.row_for("language", "c")
    assert c_row["affected"] == c_row["unaffected"]
