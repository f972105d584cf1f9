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


@pytest.mark.parametrize("order", ["non_numeric_first", "field_count_first"])
def test_first_bad_row_in_file_order_is_reported(table, order):
    # Whatever kind of error each row has, the earlier row is the one named.
    read, header, rows = table
    bad = [rows[1][:rows[1].rindex(",")] + ",oops", rows[1] + ",1.0"]
    if order == "field_count_first":
        bad.reverse()
    with pytest.raises(ParseError) as exc_info:
        read([header, rows[0], bad[0], "# note", bad[1]])
    assert exc_info.value.line == 3
    assert ("non-numeric" in str(exc_info.value)) == (order == "non_numeric_first")


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


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_bare_cr_files_read_as_lf_files(tmp_path, newline):
    lines = ["# c", "a,b", "1,2", "", "  ", "3,4", "# end", "5,6"]
    path = tmp_path / "t.csv"
    path.write_bytes("\n".join(lines).encode() + b"\n")
    want_rows, want_lines = read_table(path, ("a", "b"))
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    rows, got_lines = read_table(path, ("a", "b"))
    assert rows.tolist() == want_rows.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert got_lines == want_lines == [3, 6, 8]
    path.write_bytes(newline.join([*lines[:5], "3,x", *lines[6:]]).encode())
    with pytest.raises(ParseError) as exc_info:
        read_table(path, ("a", "b"))
    assert exc_info.value.line == 6


def test_empty_table_is_a_parse_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(ParseError, match="missing header"):
        read_table(path, ("a", "b"))


def test_a_leading_byte_order_mark_is_ignored(table):
    # Editors on some systems start a UTF-8 file with U+FEFF; without it
    # being dropped, the header would not match.
    read, header, rows = table
    assert read(["\ufeff" + header, *rows]) == read([header, *rows])


def test_a_json_config_with_a_byte_order_mark_reads(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'\xef\xbb\xbf{"a": 1, "b": [2.5]}\n')
    assert read_json_object(path) == {"a": 1, "b": [2.5]}


def test_a_bad_byte_after_a_byte_order_mark_names_its_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc_info:
        read_table(path, ("a", "b"))
    assert exc_info.value.line == 3


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
