import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_extra_data_row_names_its_line():
    with pytest.raises(InputError, match=r"^m\.mat:4: unexpected data after the 2x2 matrix$"):
        parse_matrix("2 2\n1 2\n3 4\n5 6\n", source="m.mat")
    with pytest.raises(InputError, match=r"^m\.mat:5: unexpected data after the 0x0 matrix$"):
        parse_matrix("0 0\n\n\n\n7\n", source="m.mat")
    # trailing blank lines are not data
    assert parse_matrix("1 1\n5\n\n  \n").tolist() == [[5.0]]


def test_positions_count_blank_lines():
    with pytest.raises(InputError, match=r"^m\.mat:4: expected 2 entries, found 1$"):
        parse_matrix("2 2\n\n1 2\n3\n", source="m.mat")
    with pytest.raises(InputError, match=r"^m\.mat:5: column 2: not a number: 'x'$"):
        parse_matrix("2 2\n1 2\n\n\n3 x\n", source="m.mat")


def test_bad_token_in_a_large_matrix_is_located():
    a = np.arange(40.0 * 30).reshape(40, 30)
    lines = format_matrix(a).splitlines()
    row = lines[27].split()
    row[12] = "1.0.0"
    lines[27] = " ".join(row)
    with pytest.raises(InputError, match=r"^m\.mat:28: column 13: not a number: '1\.0\.0'$"):
        parse_matrix("\n".join(lines), source="m.mat")


def test_tokens_use_python_float_syntax():
    text = "2 3\n  1_000\t+2.5 -0 \n\n.5 1E-3 4e+2\r\n"
    back = parse_matrix(text)
    assert back.tolist() == [[1000.0, 2.5, -0.0], [0.5, 1e-3, 400.0]]
    assert np.signbit(back[0, 2])


def test_rows_by_zero_columns_round_trip():
    assert format_matrix(np.zeros((3, 0))) == "3 0\n\n\n\n"
    assert parse_matrix("3 0\n\n\n\n").shape == (3, 0)
    assert parse_matrix("0 4\n").shape == (0, 4)
    with pytest.raises(InputError, match=r"^m\.mat:2: unexpected data after the 2x0 matrix$"):
        parse_matrix("2 0\n1\n", source="m.mat")


# Finite float64 values from every binade, with subnormals, both zeros and
# both extremes drawn often.
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)
matrices = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.lists(finite, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda vals: np.array(vals, dtype=float).reshape(shape)))


def reference_format(a: np.ndarray) -> str:
    """The text format written one entry at a time."""
    rows = [f"{a.shape[0]} {a.shape[1]}"] + [" ".join(f"{x:.17g}" for x in row) for row in a]
    return "\n".join(rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_format_then_parse_is_bit_exact(a):
    back = parse_matrix(format_matrix(a))
    assert back.shape == a.shape and back.dtype == np.float64
    assert back.tobytes() == a.tobytes()


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_format_matches_the_per_entry_reference(a):
    assert format_matrix(a) == reference_format(a)
