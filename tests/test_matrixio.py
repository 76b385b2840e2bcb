import numpy as np
import pytest

from widthlab import InputError, format_matrix, parse_matrix, read_matrix, write_matrix


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    a = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-12, 12, size=(7, 3))
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    back = read_matrix(path)
    assert back.shape == a.shape
    assert np.array_equal(back, a)


def test_format_header_and_rows():
    text = format_matrix(np.array([[1.5, 2.0], [3.0, 4.0]]))
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert lines[1].split() == ["1.5", "2"]


def test_parse_reports_position():
    with pytest.raises(InputError, match=r"m\.mat:1"):
        parse_matrix("nonsense", source="m.mat")
    with pytest.raises(InputError, match=r"m\.mat:2.*expected 3 entries"):
        parse_matrix("1 3\n1.0 2.0", source="m.mat")
    with pytest.raises(InputError, match=r"m\.mat:3.*column 2.*'x'"):
        parse_matrix("2 2\n1 2\n3 x", source="m.mat")


def test_parse_rejects_non_finite():
    with pytest.raises(InputError, match="non-finite"):
        parse_matrix("1 2\n1 inf", source="m.mat")


def test_missing_file_names_path(tmp_path):
    with pytest.raises(InputError, match="nope.mat"):
        read_matrix(tmp_path / "nope.mat")


def test_unwritable_path_is_input_error(tmp_path):
    path = tmp_path / "no-such-dir" / "a.mat"
    with pytest.raises(InputError, match=r"no-such-dir.*: cannot write: "):
        write_matrix(path, np.eye(2))
