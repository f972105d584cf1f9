"""The shared input rules, checked through each reader that uses them."""

import numpy as np
import pytest

from casimir_mto.cli import _interp_bound_file, _load_calibration_csv
from casimir_mto.errors import ConfigurationError, ParseError
from casimir_mto.inputs import read_json_object, read_table
from casimir_mto.materials import load_optical_data


def _optical(path):
    table = load_optical_data(path)
    return np.column_stack([table.energy_ev, table.eps2]).tolist()


def _calibration(path):
    return _load_calibration_csv(path).tolist()


def _bound(path):
    return _interp_bound_file(path, np.array([2e-7, 5e-7])).tolist()


# (reader, header, two valid data rows) for every headed CSV table.
TABLES = {
    "optical": (_optical, "energy_ev,eps2", ["0.5,10", "1.0,5"]),
    "calibration": (_calibration, "z_metal_m,v_applied_v,delta_c_f",
                    ["1e-6,0.1,1e-14", "2e-6,0.2,1e-14"]),
    "bound": (_bound, "z_m,bound_n", ["1e-7,1e-14", "1e-6,2e-14"]),
}


@pytest.fixture(params=sorted(TABLES))
def table(request, tmp_path):
    reader, header, rows = TABLES[request.param]
    path = tmp_path / "table.csv"

    def read(lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return reader(path)

    return read, header, rows


def test_comment_and_blank_lines_are_skipped_anywhere(table):
    read, header, rows = table
    padded = ["# exported by hand", "", header, "  # units: SI", rows[0], "", rows[1], "# end"]
    assert read(padded) == read([header, *rows])


def test_header_matches_case_insensitively(table):
    read, header, rows = table
    shouted = " " + header.upper().replace(",", " , ")
    assert read([shouted, *rows]) == read([header, *rows])


@pytest.mark.parametrize("bad", ["non_numeric", "field_count"])
def test_bad_row_reports_its_file_line(table, bad):
    read, header, rows = table
    if bad == "non_numeric":
        broken = rows[1][:rows[1].rindex(",")] + ",oops"
    else:
        broken = rows[1] + ",1.0"
    with pytest.raises(ParseError) as exc_info:
        read(["# note", header, rows[0], "", broken])
    assert exc_info.value.line == 5


def test_header_only_is_a_parse_error(table):
    read, header, _ = table
    with pytest.raises(ParseError):
        read(["# note", header, "", "# no rows"])


def test_missing_header_reports_its_file_line(table):
    read, _, rows = table
    with pytest.raises(ParseError) as exc_info:
        read(["", *rows])
    assert exc_info.value.line == 2


def test_read_table_returns_rows_and_file_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# c\na,b\n1,2\n\n3,4\n", encoding="utf-8")
    rows, lines = read_table(path, ("a", "b"))
    assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert lines == [3, 5]


def test_empty_table_is_a_parse_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(ParseError, match="missing header"):
        read_table(path, ("a", "b"))


def test_json_decode_error_carries_line(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{\n  "a": 1,\n  oops\n}\n', encoding="utf-8")
    with pytest.raises(ParseError) as exc_info:
        read_json_object(path)
    assert exc_info.value.line == 3


def test_json_document_must_be_an_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        read_json_object(path)
