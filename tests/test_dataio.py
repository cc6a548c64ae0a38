import ast
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mtgl import dataio
from mtgl.dataio import (
    SIDECAR_DIGEST_KEY,
    ParseError,
    format_float,
    format_value,
    read_coefficients,
    read_dataset,
    read_keyvalue,
    read_matrix_csv,
    write_coefficients,
    write_dataset,
    write_keyvalue,
    write_matrix_csv,
    write_records,
)
from mtgl.experiments import ComparisonReplicate, ReplicateMetrics
from mtgl.model import GroupCoefficients
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200):
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1"
    assert float(format_float(np.pi)) == np.pi


def test_format_value_of_each_kind():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(np.float64(2.0)) == "2"
    assert format_value(None) == ""
    assert format_value("block-coordinate") == "block-coordinate"


def test_write_keyvalue_formats_its_values(tmp_path):
    path = tmp_path / "report.txt"
    write_keyvalue(path, [("a", 0.1), ("b", True), ("c", None), ("d", 3), ("e", "x")])
    assert path.read_text() == "a=0.10000000000000001\nb=true\nc=\nd=3\ne=x\n"


def test_write_records_of_replicate_metrics(tmp_path):
    metrics = (
        ReplicateMetrics(
            replicate=0, converged=True, iterations=3, kkt_residual=1e-9,
            prediction_error=0.25, err_21=0.1, err_2=0.5, err_2inf=2.0,
            err_2p=(0.1, 1.5), m_hat=2, correlation_stat=0.3, phi_max=1.0,
        ),
        ReplicateMetrics(
            1, False, 1000, 0.5, 1.0, 2.0, 3.0, 4.0, (5.0, 6.0), 0, 7.0,
            True, False, 8.5, 9.0,
        ),
    )
    path = tmp_path / "replicates.csv"
    write_records(path, metrics, {"err_2p": ["err2p_1", "err2p_2"]})
    assert path.read_text() == (
        "replicate,converged,iterations,kkt_residual,prediction_error,"
        "err_21,err_2,err_2inf,err2p_1,err2p_2,m_hat,correlation_stat,"
        "support_exact,sign_exact,c_prime,phi_max\n"
        "0,true,3,1.0000000000000001e-09,0.25,0.10000000000000001,0.5,2,"
        "0.10000000000000001,1.5,2,0.29999999999999999,,,,1\n"
        "1,false,1000,0.5,1,2,3,4,5,6,0,7,true,false,8.5,9\n"
    )


def test_write_records_of_comparison_replicates(tmp_path):
    rows = (
        ComparisonReplicate(1, 0, 0.5, 0.25, True, True),
        ComparisonReplicate(4, 1, 2.0, 1.0 / 3.0, True, False),
    )
    path = tmp_path / "replicates.csv"
    write_records(path, rows)
    assert path.read_text() == (
        "T,replicate,group_error,plain_error,group_converged,plain_converged\n"
        "1,0,0.5,0.25,true,true\n"
        "4,1,2,0.33333333333333331,true,false\n"
    )


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


def test_keyvalue_keeps_a_hash_inside_a_value(tmp_path):
    # only a line that starts with '#' is a comment: a path may hold one
    path = tmp_path / "c.txt"
    path.write_text("design_0=runs/#3/x.csv\nkind=ar1 # not a comment\n")
    assert read_keyvalue(path) == {"design_0": "runs/#3/x.csv", "kind": "ar1 # not a comment"}


def test_only_dataio_reads_keyvalue_files():
    # Configs and manifests share one reader, dataio.KeyValueFile, so no
    # other module reads a key=value file itself.  The package's __init__
    # re-exports read_keyvalue as public API and is not counted.
    users = set()
    for path in sorted(Path(dataio.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if "read_keyvalue" in names:
            users.add(path.stem)
    assert users == {"dataio"}


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


def _directory_bytes(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_dataset_files_do_not_depend_on_the_worker_count(tmp_path, use_workers):
    # 5 tasks on 1, 2 and 3 workers: the CSVs of a task are written
    # by whichever worker it is dealt to, then the sidecars, digest and manifest
    data = _dataset(T=5)
    written = {}
    for count in (1, 2, 3):
        use_workers(count)
        write_dataset(data, tmp_path / f"w{count}")
        written[count] = _directory_bytes(tmp_path / f"w{count}")
    assert len(written[1]) == 2 * 5 + 3
    assert written[1] == written[2] == written[3]


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


def _reseal(manifest, sidecars=dataio.SIDECAR_NAMES):
    """Recompute the manifest's sidecar digest over the files as they are."""
    entries = read_keyvalue(manifest)
    base = os.path.dirname(manifest)
    names = [entries[f"{kind}_{t}"] for t in range(int(entries["T"]))
             for kind in ("design", "response")]
    paths = [os.path.join(base, name) for name in names + list(sidecars)]
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


def test_read_dataset_holds_one_copy_of_the_design(tmp_path):
    # the sidecar arrays are adopted, not copied into the dataset
    design = DesignSpec(kind="ar1", n=150, M=500, T=8, rho=0.6)
    data, _ = generate_dataset(design, SignalSpec(s=20), NoiseSpec(sigma=1.0), 0)
    manifest = write_dataset(data, tmp_path / "d")
    tracemalloc.start()
    try:
        back = read_dataset(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.designs.tobytes() == data.designs.tobytes()
    assert peak < 1.5 * data.designs.nbytes


class _Unpicklable:
    def __reduce__(self):
        return (pytest.fail, ("an object-dtype sidecar was unpickled",))


def _edit_csv(d):
    design = read_matrix_csv(d / "task0_design.csv")
    design[2, 1] += 1.0
    write_matrix_csv(d / "task0_design.csv", design)


def _truncate_sidecar(d):
    path = d / "designs_t.npy"
    path.write_bytes(path.read_bytes()[:200])


def _swap_sidecar(d):
    other = _dataset(seed=9)
    np.save(d / "designs_t.npy", other.designs.transpose(0, 2, 1))


def _save_sealed(name, array, **kwargs):
    def damage(d):
        np.save(d / name, array(np.load(d / name)), **kwargs)
        _reseal(str(d / "manifest.txt"))
    return damage


def _npz_sidecar(d):
    designs = np.load(d / "designs_t.npy")
    with open(d / "designs_t.npy", "wb") as handle:
        np.savez(handle, designs=designs)
    _reseal(str(d / "manifest.txt"))


def _drop_digest(d):
    entries = read_keyvalue(d / "manifest.txt")
    del entries[SIDECAR_DIGEST_KEY]
    write_keyvalue(d / "manifest.txt", entries.items())
    # the sidecar now disagrees with the CSVs; without a digest it is ignored
    np.save(d / "responses.npy", np.zeros((3, 8)))


def _old_layout_square_sidecar(d):
    # An older writer's dataset at n == M: its sealed designs.npy holds
    # the (T, n, M) designs, which a shape check could not tell from the
    # (T, M, n) store, and there is no designs_t.npy.
    data = _dataset(n=4, M=4)
    write_dataset(data, d)
    (d / "designs_t.npy").unlink()
    np.save(d / "designs.npy", np.ascontiguousarray(data.designs))
    _reseal(str(d / "manifest.txt"), ("designs.npy", "responses.npy"))


@pytest.mark.parametrize("damage", [
    _edit_csv,
    _truncate_sidecar,
    lambda d: (d / "responses.npy").unlink(),
    _swap_sidecar,
    _save_sealed("designs_t.npy", lambda a: a.astype(np.float32)),
    _save_sealed("designs_t.npy", lambda a: a.astype(">f8")),
    # the old (T, n, M) layout under the store's name
    _save_sealed("designs_t.npy", lambda a: np.ascontiguousarray(a.transpose(0, 2, 1))),
    # the store's shape and values, Fortran-ordered
    _save_sealed("designs_t.npy", np.asfortranarray),
    _save_sealed("responses.npy", lambda a: a[:, :-1]),
    _save_sealed("responses.npy",
                 lambda a: np.array([_Unpicklable()] * a.size, dtype=object),
                 allow_pickle=True),
    _npz_sidecar,
    _drop_digest,
    _old_layout_square_sidecar,
], ids=["csv-edited", "truncated", "missing", "swapped", "float32",
        "big-endian", "transposed", "fortran-order", "short", "object-dtype", "npz", "no-digest",
        "old-layout-square"])
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
    with pytest.raises(ParseError, match="key 'n' has invalid value 'eight'"):
        read_dataset(manifest)


@pytest.mark.parametrize("key", ["n", "M", "T"])
@pytest.mark.parametrize("value", ["-2", "0"])
def test_dataset_sizes_below_one_name_manifest_and_key(tmp_path, key, value):
    data = _dataset()
    manifest = write_dataset(data, tmp_path / "d")
    entries = read_keyvalue(manifest)
    entries[key] = value
    write_keyvalue(manifest, entries.items())
    with pytest.raises(ParseError) as err:
        read_dataset(manifest)
    message = str(err.value)
    assert str(manifest) in message
    assert f"key {key!r} has invalid value {value!r}" in message


def test_declared_size_is_checked_against_design_before_allocation(tmp_path):
    # n = M = 10^9 for a 1 x 3 design CSV.  Allocating the declared
    # (T, n, M) array would need 8e18 bytes and fail at once, so even a
    # reader that allocated first could not use real memory here.
    (tmp_path / "x.csv").write_text("1,2,3\n")
    (tmp_path / "y.csv").write_text("1\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "n=1000000000\nM=1000000000\nT=1\ndesign_0=x.csv\nresponse_0=y.csv\n"
    )
    with pytest.raises(ParseError) as err:
        read_dataset(manifest)
    message = str(err.value)
    assert "x.csv" in message
    assert "expected 1000000000" in message


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
    store = np.load(d / "designs_t.npy")
    store[1, 0, 0] = np.inf
    write_matrix_csv(d / "task1_design.csv", store[1].T)
    np.save(d / "designs_t.npy", store)
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
