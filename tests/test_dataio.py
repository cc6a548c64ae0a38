import os

import numpy as np
import pytest

from mtgl import dataio
from mtgl.dataio import (
    SIDECAR_DIGEST_KEY,
    ParseError,
    format_float,
    read_coefficients,
    read_dataset,
    read_keyvalue,
    read_matrix_csv,
    write_coefficients,
    write_dataset,
    write_keyvalue,
    write_matrix_csv,
)
from mtgl.model import GroupCoefficients
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200):
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1"
    assert float(format_float(np.pi)) == np.pi


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((5, 3)) * 1e-7
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix)
    back = read_matrix_csv(path)
    assert back.shape == (5, 3)
    np.testing.assert_array_equal(back, matrix)  # bit-exact, not approx


def _reference_csv_text(matrix):
    """The writer's output spelled out with format_float, cell by cell."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    return "".join(",".join(format_float(x) for x in row) + "\n" for row in matrix)


def test_writer_matches_format_float_byte_for_byte(tmp_path):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=6000, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)]
    subnormal = rng.integers(1, 2**52, size=300, dtype=np.uint64).view(np.float64)
    integers = rng.integers(-(2**53), 2**53, size=300).astype(float)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0,
               1e22, 1e23, 2.0**53, 0.1, 1 / 3]
    gaussian = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)
    values = np.concatenate([finite[:5400], subnormal, integers, gaussian,
                             np.repeat(special, 30)[:300]])
    for matrix in (values.reshape(-1, 12), values[:97]):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, matrix)
        assert path.read_text() == _reference_csv_text(matrix)


def test_vector_written_as_column(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix_csv(path, np.array([1.0, 2.0, 3.0]))
    back = read_matrix_csv(path)
    assert back.shape == (3, 1)


def test_ragged_row_error_cites_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError) as err:
        read_matrix_csv(path)
    message = str(err.value)
    assert "bad.csv" in message and "row 2" in message


def test_non_numeric_cell_error_cites_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        read_matrix_csv(path)
    message = str(err.value)
    assert "row 2" in message and "column 2" in message and "oops" in message


def test_empty_matrix_file_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_matrix_csv(path)


def test_column_count_enforced(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.ones((4, 2)))
    with pytest.raises(ParseError, match="expected 3"):
        read_matrix_csv(path, columns=3)


def test_keyvalue_round_trip(tmp_path):
    path = tmp_path / "c.txt"
    write_keyvalue(path, [("alpha", "8"), ("name", "trial run")])
    assert read_keyvalue(path) == {"alpha": "8", "name": "trial run"}


def test_keyvalue_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# heading\n\nn = 10\n  # indented comment\nkind=ar1\n")
    assert read_keyvalue(path) == {"n": "10", "kind": "ar1"}


def test_keyvalue_errors(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("just a line\n")
    with pytest.raises(ParseError, match="line 1"):
        read_keyvalue(path)
    path.write_text("=value\n")
    with pytest.raises(ParseError, match="empty key"):
        read_keyvalue(path)
    path.write_text("n=1\nn=2\n")
    with pytest.raises(ParseError, match="duplicate key 'n'"):
        read_keyvalue(path)


def _dataset(seed=0, n=8, M=4, T=3):
    design = DesignSpec(kind="gaussian-iid", n=n, M=M, T=T)
    data, _ = generate_dataset(design, SignalSpec(s=2), NoiseSpec(sigma=0.5), seed)
    return data


def test_dataset_round_trip(tmp_path):
    data = _dataset()
    manifest = write_dataset(data, tmp_path / "d")
    back = read_dataset(manifest)
    np.testing.assert_array_equal(back.designs, data.designs)
    np.testing.assert_array_equal(back.responses, data.responses)
    assert (back.n, back.M, back.T) == (data.n, data.M, data.T)


def test_dataset_shape_mismatch_cites_file_and_counts(tmp_path):
    data = _dataset(n=10)
    manifest = write_dataset(data, tmp_path / "d")
    short = np.loadtxt(tmp_path / "d" / "task1_response.csv")[:9]
    write_matrix_csv(tmp_path / "d" / "task1_response.csv", short)
    with pytest.raises(ParseError) as err:
        read_dataset(manifest)
    message = str(err.value)
    assert "task1_response.csv" in message
    assert "10" in message and "9" in message


def _csv_reads(monkeypatch):
    calls = []
    read = dataio.read_matrix_csv

    def counted(*args, **kwargs):
        calls.append(args[0])
        return read(*args, **kwargs)

    monkeypatch.setattr(dataio, "read_matrix_csv", counted)
    return calls


def _csv_arrays(directory, T):
    """The dataset's arrays as its CSVs spell them."""
    designs = [read_matrix_csv(directory / f"task{t}_design.csv") for t in range(T)]
    responses = [read_matrix_csv(directory / f"task{t}_response.csv")[:, 0]
                 for t in range(T)]
    return np.array(designs), np.array(responses)


def _reseal(manifest):
    """Recompute the manifest's sidecar digest over the files as they are."""
    entries = read_keyvalue(manifest)
    base = os.path.dirname(manifest)
    names = [entries[f"{kind}_{t}"] for t in range(int(entries["T"]))
             for kind in ("design", "response")]
    paths = [os.path.join(base, name) for name in names + list(dataio.SIDECAR_NAMES)]
    entries[SIDECAR_DIGEST_KEY] = dataio._files_digest(paths)
    write_keyvalue(manifest, entries.items())


def test_gen_writes_digest_checked_sidecars(tmp_path, monkeypatch):
    data = _dataset()
    manifest = write_dataset(data, tmp_path / "d")
    assert len(read_keyvalue(manifest)[SIDECAR_DIGEST_KEY]) == 64
    calls = _csv_reads(monkeypatch)
    back = read_dataset(manifest)
    assert calls == []
    designs, responses = _csv_arrays(tmp_path / "d", data.T)
    # bit-identical to the CSV path, signed zeros and all
    assert back.designs.tobytes() == designs.tobytes()
    assert back.responses.tobytes() == responses.tobytes()


class _Unpicklable:
    def __reduce__(self):
        return (pytest.fail, ("an object-dtype sidecar was unpickled",))


def _edit_csv(d):
    design = read_matrix_csv(d / "task0_design.csv")
    design[2, 1] += 1.0
    write_matrix_csv(d / "task0_design.csv", design)


def _truncate_sidecar(d):
    path = d / "designs.npy"
    path.write_bytes(path.read_bytes()[:200])


def _swap_sidecar(d):
    other = _dataset(seed=9)
    np.save(d / "designs.npy", other.designs)


def _save_sealed(name, array, **kwargs):
    def damage(d):
        np.save(d / name, array(np.load(d / name)), **kwargs)
        _reseal(str(d / "manifest.txt"))
    return damage


def _npz_sidecar(d):
    designs = np.load(d / "designs.npy")
    with open(d / "designs.npy", "wb") as handle:
        np.savez(handle, designs=designs)
    _reseal(str(d / "manifest.txt"))


def _drop_digest(d):
    entries = read_keyvalue(d / "manifest.txt")
    del entries[SIDECAR_DIGEST_KEY]
    write_keyvalue(d / "manifest.txt", entries.items())
    # the sidecar now disagrees with the CSVs; without a digest it is ignored
    np.save(d / "responses.npy", np.zeros((3, 8)))


@pytest.mark.parametrize("damage", [
    _edit_csv,
    _truncate_sidecar,
    lambda d: (d / "responses.npy").unlink(),
    _swap_sidecar,
    _save_sealed("designs.npy", lambda a: a.astype(np.float32)),
    _save_sealed("designs.npy", lambda a: a.astype(">f8")),
    _save_sealed("designs.npy", lambda a: np.ascontiguousarray(a.transpose(0, 2, 1))),
    _save_sealed("responses.npy", lambda a: a[:, :-1]),
    _save_sealed("responses.npy",
                 lambda a: np.array([_Unpicklable()] * a.size, dtype=object),
                 allow_pickle=True),
    _npz_sidecar,
    _drop_digest,
], ids=["csv-edited", "truncated", "missing", "swapped", "float32",
        "big-endian", "transposed", "short", "object-dtype", "npz", "no-digest"])
def test_damaged_sidecar_falls_back_to_csv(tmp_path, monkeypatch, damage):
    data = _dataset()
    d = tmp_path / "d"
    manifest = write_dataset(data, d)
    damage(d)
    designs, responses = _csv_arrays(d, data.T)
    calls = _csv_reads(monkeypatch)
    back = read_dataset(manifest)
    assert len(calls) == 2 * data.T
    np.testing.assert_array_equal(back.designs, designs)
    np.testing.assert_array_equal(back.responses, responses)


def test_dataset_missing_and_unknown_keys(tmp_path):
    data = _dataset()
    manifest = write_dataset(data, tmp_path / "d")
    # the manifest is checked even though the sidecars are valid
    assert SIDECAR_DIGEST_KEY in read_keyvalue(manifest)
    entries = read_keyvalue(manifest)
    del entries["design_1"]
    write_keyvalue(manifest, entries.items())
    with pytest.raises(ParseError, match="design_1"):
        read_dataset(manifest)

    manifest = write_dataset(data, tmp_path / "d2")
    with open(manifest, "a") as handle:
        handle.write("flavor=vanilla\n")
    with pytest.raises(ParseError, match="flavor"):
        read_dataset(manifest)


def test_dataset_non_integer_header(tmp_path):
    data = _dataset()
    manifest = write_dataset(data, tmp_path / "d")
    entries = read_keyvalue(manifest)
    entries["n"] = "eight"
    write_keyvalue(manifest, entries.items())
    with pytest.raises(ParseError, match="integer"):
        read_dataset(manifest)


def test_non_finite_csv_rejected_with_sidecars_present(tmp_path):
    data = _dataset()
    d = tmp_path / "d"
    manifest = write_dataset(data, d)
    design = read_matrix_csv(d / "task1_design.csv")
    design[0, 0] = np.nan
    write_matrix_csv(d / "task1_design.csv", design)
    with pytest.raises(ValueError, match="non-finite"):
        read_dataset(manifest)
    # a sealed non-finite sidecar is rejected by the same dataset check
    designs = np.load(d / "designs.npy")
    designs[1, 0, 0] = np.inf
    write_matrix_csv(d / "task1_design.csv", designs[1])
    np.save(d / "designs.npy", designs)
    _reseal(str(manifest))
    with pytest.raises(ValueError, match="non-finite"):
        read_dataset(manifest)


def test_coefficients_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    beta = GroupCoefficients(rng.standard_normal((6, 2)))
    path = tmp_path / "beta.csv"
    write_coefficients(beta, path)
    back = read_coefficients(path)
    np.testing.assert_array_equal(back.values, beta.values)
