import numpy as np
import pytest
import scipy.sparse as sp

from pdirichlet import csvio
from pdirichlet.csvio import Table, _format_cell, read_csv, write_csv
from pdirichlet.density import reference_density, sample_density
from pdirichlet.errors import ValidationError
from pdirichlet.graph import build_epsilon_graph, default_epsilon


# ---------------------------------------------------------------------- table


def test_table_rejects_ragged_rows():
    with pytest.raises(ValidationError, match="ragged"):
        Table(("a", "b"), ((1, 2), (3,)))


def test_table_rejects_empty_header():
    with pytest.raises(ValidationError):
        Table((), ())


def test_from_columns_and_column_access():
    t = Table.from_columns(("x", "y"), ([1, 2, 3], [4.0, 5.0, 6.0]))
    assert t.rows == ((1, 4.0), (2, 5.0), (3, 6.0))
    assert t.column("y") == [4.0, 5.0, 6.0]
    with pytest.raises(ValidationError, match="no column"):
        t.column("z")
    with pytest.raises(ValidationError):
        Table.from_columns(("x", "y"), ([1, 2], [3]))


# ----------------------------------------------------------------- round trip


def test_round_trip_mixed_types(tmp_path):
    t = Table(
        ("name", "count", "value"),
        (("alpha", 3, 0.1), ("beta", -7, 2.0), ("gamma", 0, -1.5e-300)),
    )
    path = tmp_path / "t.csv"
    write_csv(t, path)
    back = read_csv(path)
    assert back == t
    # 0.1 is not exactly representable; the round trip must still be exact
    assert back.rows[0][2] == 0.1
    # whole-valued floats keep their type through the file
    assert isinstance(back.rows[1][2], float) and back.rows[1][2] == 2.0


def test_round_trip_header_only(tmp_path):
    t = Table(("a", "b", "c"), ())
    path = tmp_path / "empty.csv"
    write_csv(t, path)
    assert read_csv(path) == t


def test_round_trip_random_table(tmp_path):
    rng = np.random.default_rng(20240817)
    floats = rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, size=200)
    ints = rng.integers(-(2**62), 2**62, size=200)
    rows = tuple(
        (int(i), float(f), f"s{k}") for k, (i, f) in enumerate(zip(ints, floats))
    )
    t = Table(("i", "f", "s"), rows)
    path = tmp_path / "rand.csv"
    write_csv(t, path)
    back = read_csv(path)
    assert back.rows == t.rows


def test_written_file_uses_lf_and_trailing_newline(tmp_path):
    path = tmp_path / "lf.csv"
    write_csv(Table(("a",), ((1,),)), path)
    raw = path.read_bytes()
    assert raw == b"a\n1\n"


# ------------------------------------------------------------ column writer

_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, -1e16, 1e17, -1e17, 9.999999999999998e16,
    5e-324, 2.2250738585072014e-308 / 3, float("nan"), float("inf"), float("-inf"),
    0.1, -1.0 / 3.0, 123456.5, 1.7976931348623157e308,
]
_N = len(_FLOATS)


def _adversarial_columns():
    ints = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 7]
    uints = [np.iinfo(np.uint64).max, 0, 2**63, 1]
    mixed = [3, 2.0, -0.0, 10**20, 1e17, 5, 0.5]
    words = ["alpha", "", "+x", "1e3", "-", "nan"]
    return {
        "f64": np.array(_FLOATS),
        "f32": np.array(_FLOATS[:-1] + [3.4028234663852886e38], dtype=np.float32),
        "f32_whole": np.array([1e17, 16777216.0, -0.0, 0.1] * 5, dtype=np.float32)[:_N],
        "i64": np.resize(np.array(ints, dtype=np.int64), _N),
        "u64": np.resize(np.array(uints, dtype=np.uint64), _N),
        "mixed": (mixed * 3)[:_N],
        "words": (words * 4)[:_N],
        "str_array": np.resize(np.array(words), _N),
    }


def _reference_bytes(header, columns) -> bytes:
    """The row-at-a-time writer: `_format_cell` on every cell."""
    lines = [",".join(header)]
    lines += [",".join(_format_cell(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("chunk", [1, 3, _N - 1, _N, _N + 1])
def test_column_writer_matches_cell_formatter(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk)
    columns = _adversarial_columns()
    header = tuple(columns)
    path = tmp_path / "adv.csv"
    write_csv(Table.from_columns(header, columns.values()), path)
    raw = path.read_bytes()
    assert raw == _reference_bytes(header, columns.values())
    # spot checks on the float marker and the 1e17 switch to exponent form
    first_rows = raw.split(b"\n")[1:3]
    assert first_rows[0].startswith(b"0.0,0.0,99999998430674944.0,")
    assert first_rows[1].startswith(b"-0.0,-0.0,16777216.0,")
    assert b"\n1e+17,99999998430674944.0," in raw
    assert b"\n99999999999999984.0," in raw


@pytest.mark.parametrize("column, first", [
    (np.ones(5), b"1.0"),
    (np.array([0.0, -0.0, 0.0, -0.0]), b"0.0"),
    (np.full(4, -0.0), b"-0.0"),
    (np.full(3, np.nan), b"nan"),
    (np.array([2.5]), b"2.5"),
    (np.full(6, 1e17, dtype=np.float32), b"99999998430674944.0"),
])
def test_constant_float_columns_match_the_cell_formatter(tmp_path, monkeypatch, column, first):
    # the writer formats a constant column once; 0.0 and -0.0 compare equal
    # but print apart, and nan compares unequal but prints alike
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 4)
    path = tmp_path / "const.csv"
    write_csv(Table.from_columns(("v", "k"), (column, np.arange(column.size))), path)
    raw = path.read_bytes()
    assert raw == _reference_bytes(("v", "k"), (column, np.arange(column.size)))
    assert raw.split(b"\n")[1] == first + b",0"


_DENSE = 10


def _dense_integer_columns():
    """Integer columns whose value range is at most their length, so the
    writer formats each value of the range once, and two just past it."""
    rng = np.random.default_rng(5)
    return {
        "arange": np.arange(_DENSE),
        "sorted_repeats": np.sort(rng.integers(3, 8, _DENSE)),
        "negative": np.arange(_DENSE)[::-1] - 1000,
        "int8": np.array([-128, -119, -120, -128, -125, -119, -121, -122, -123, -124],
                         dtype=np.int8),
        "int32": rng.permutation(_DENSE).astype(np.int32) + np.int32(-(2**31)),
        "uint16": np.resize(np.array([65535, 65530, 65534], dtype=np.uint16), _DENSE),
        "uint64": np.arange(_DENSE, dtype=np.uint64) + np.uint64(2**64 - _DENSE),
        "range_length_minus_1": np.r_[0, np.arange(_DENSE - 1)],
        "range_length": np.arange(-5, _DENSE - 5)[rng.permutation(_DENSE)],
        "range_length_plus_1": np.r_[0, np.arange(2, _DENSE + 1)],
        "sparse_range": np.arange(_DENSE) * 10**12,
    }


@pytest.mark.parametrize("chunk", [1, 3, _DENSE - 1, _DENSE, _DENSE + 1])
def test_dense_integer_columns_match_the_cell_formatter(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk)
    columns = _dense_integer_columns()
    header = tuple(columns)
    path = tmp_path / "dense.csv"
    write_csv(Table.from_columns(header, columns.values()), path)
    assert path.read_bytes() == _reference_bytes(header, columns.values())
    # the switch point: a range of the column's length is formatted per value
    for name, column in columns.items():
        per_value = csvio._column_formatter(column) is not csvio._format_column
        assert per_value == (name not in ("range_length_plus_1", "sparse_range")), name


@pytest.mark.parametrize("column", [
    np.array([7]),
    np.array([-3], dtype=np.int8),
    np.zeros(0, dtype=np.int64),
    # offsets from the minimum above 127 wrap in int8
    np.random.default_rng(6).permutation(np.resize(np.arange(-128, 100), 300)).astype(np.int8),
    np.random.default_rng(7).permutation(np.arange(-128, 128)).astype(np.int8),
])
def test_short_and_full_range_integer_columns(tmp_path, column):
    path = tmp_path / "short.csv"
    write_csv(Table.from_columns(("i",), (column,)), path)
    assert path.read_bytes() == _reference_bytes(("i",), (column,))


def test_discrete_artifacts_match_the_cell_formatter(tmp_path, monkeypatch):
    # the CLI's two solve-discrete tables for a real epsilon-graph, over
    # several chunks: sorted edge endpoints and the node index column
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 1000)
    cloud = sample_density(reference_density("rho2"), 1024, seed=3)
    graph = build_epsilon_graph(cloud.points, default_epsilon(1024, 3.0))
    upper = sp.triu(graph.weights, k=1).tocoo()
    values = np.random.default_rng(3).random(graph.n)
    tables = {
        "edges": (("i", "j", "w"), (upper.row.astype(int), upper.col.astype(int), upper.data)),
        "labels": (("i", "x", "y", "f"),
                   (np.arange(graph.n), graph.points[:, 0], graph.points[:, 1], values)),
    }
    for name, (header, columns) in tables.items():
        write_csv(Table.from_columns(header, columns), tmp_path / f"{name}.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == _reference_bytes(header, columns)


def test_row_and_column_tables_write_the_same_bytes(tmp_path):
    columns = _adversarial_columns()
    header = tuple(columns)
    by_columns = Table.from_columns(header, columns.values())
    by_rows = Table(header, by_columns.rows)
    assert by_columns.columns[0] is columns["f64"]  # numpy columns are kept, not copied
    write_csv(by_columns, tmp_path / "c.csv")
    write_csv(by_rows, tmp_path / "r.csv")
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    # nan != nan, so equality is checked on the columns that hold none
    names = ("i64", "u64", "mixed", "words")
    subset = Table.from_columns(names, [columns[k] for k in names])
    assert subset == Table(names, subset.rows)
    assert subset != Table(names, subset.rows[1:] + subset.rows[:1])


# ------------------------------------------------------------------ bad cells


def test_boolean_cells_rejected(tmp_path):
    t = Table(("flag",), ((True,),))
    with pytest.raises(ValidationError, match="0/1"):
        write_csv(t, tmp_path / "bool.csv")


def test_separator_in_string_cell_rejected(tmp_path):
    t = Table(("s",), (("a,b",),))
    with pytest.raises(ValidationError, match="separator"):
        write_csv(t, tmp_path / "sep.csv")


def test_numpy_bool_column_rejected(tmp_path):
    t = Table.from_columns(("x", "flag"), (np.arange(3.0), np.array([True, False, True])))
    with pytest.raises(ValidationError, match="0/1"):
        write_csv(t, tmp_path / "bool.csv")
    assert not (tmp_path / "bool.csv").exists()


def test_bad_cell_in_a_later_chunk_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 2)
    t = Table.from_columns(("i", "s"), (np.arange(5), ["a", "b", "c", "d\ne", "f"]))
    with pytest.raises(ValidationError, match="line break"):
        write_csv(t, tmp_path / "late.csv")
    assert not (tmp_path / "late.csv").exists()


def test_rerun_overwrites_and_a_rejected_table_keeps_the_previous_file(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 2)
    path = tmp_path / "t.csv"
    first = Table.from_columns(("i", "s"), (np.arange(5), ["a", "b", "c", "d", "e"]))
    second = Table.from_columns(("i", "s"), (np.arange(3), ["x", "y", "z"]))
    write_csv(first, path)
    write_csv(second, path)
    assert read_csv(path) == second
    written = path.read_bytes()
    bad = Table.from_columns(("i", "s"), (np.arange(5), ["a", "b", "c", "d\ne", "f"]))
    with pytest.raises(ValidationError, match="line break"):
        write_csv(bad, path)
    assert path.read_bytes() == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_text_artifacts_are_replaced_whole(tmp_path):
    path = tmp_path / "run_manifest.txt"
    csvio._write_text(path, "first\nrun\n")
    csvio._write_text(path, "second\n")
    assert path.read_bytes() == b"second\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_manifest.txt"]


# ------------------------------------------------------------------ bad files


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValidationError, match="header"):
        read_csv(path)


def test_read_rejects_ragged_line_with_location(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValidationError, match=r"ragged\.csv:3"):
        read_csv(path)


def test_read_parses_numbers_and_strings(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("a,b,c\n12,3.5,word\n-4,1e3,+x\n")
    t = read_csv(path)
    assert t.rows[0] == (12, 3.5, "word")
    assert t.rows[1] == (-4, 1000.0, "+x")
    assert isinstance(t.rows[0][0], int)
    assert isinstance(t.rows[0][1], float)
