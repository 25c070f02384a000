"""The paper-report check: grid shape, cell domains and CSV read-back."""

from repro.experiments import SeriesTable

from workloads import SHAPES, check_table, read_csv_rows


def _fig9_like() -> SeriesTable:
    x_count, series = SHAPES["fig9"]
    labels = [f"{n:,}" for n in range(100_000, 100_000 * (x_count + 1), 100_000)]
    table = SeriesTable(title="t", x_name="n", x_values=labels)
    for k, name in enumerate(series):
        table.add_series(name, [1.0 + k / 7 + i / 3 for i in range(x_count)])
    return table


def test_labels_with_commas_read_back(tmp_path):
    table = _fig9_like()
    path = table.write_csv(tmp_path / "fig9.csv")
    assert "100,000," in path.read_text()
    assert check_table("fig9", table, path) == []


def test_read_csv_rows_splits_from_the_right():
    assert read_csv_rows("n,GEE,AE\n1,000,1.5,2.0\n", 2) == [
        ("n", ["GEE", "AE"]),
        ("1,000", ["1.5", "2.0"]),
    ]
    assert read_csv_rows("short\n", 2) == [("short", [])]


def test_changed_cell_is_caught(tmp_path):
    table = _fig9_like()
    path = table.write_csv(tmp_path / "fig9.csv")
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1.25"
    path.write_text("\n".join(lines) + "\n")
    assert check_table("fig9", table, path) == ["CSV does not read back as the table"]


def test_garbled_cell_and_missing_row_are_caught(tmp_path):
    table = _fig9_like()
    path = table.write_csv(tmp_path / "fig9.csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert check_table("fig9", table, path) == ["CSV header or row count differs"]
    lines[2] = lines[2].rsplit(",", 1)[0] + ",oops"
    path.write_text("\n".join(lines) + "\n")
    assert check_table("fig9", table, path) == ["CSV does not read back as the table"]


def test_ratio_error_below_one_and_shape(tmp_path):
    table = _fig9_like()
    table.series["GEE"][0] = 0.5
    path = table.write_csv(tmp_path / "fig9.csv")
    assert check_table("fig9", table, path) == ["ratio error below 1 in GEE"]
    assert check_table("fig5", table, path) == ["grid shape differs from the registered one"]
