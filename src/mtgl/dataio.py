"""File formats: numeric CSV, dataset manifests, key=value files, and
the text of every output file.

``format_value`` writes every value: floats with 17 significant digits,
so double precision round-trips exactly through text, bools as
true/false, None as an empty cell.  Numeric CSV files have no header,
use '.' as the decimal separator, and one row per line; a table of
records (``write_records``) has a header of field names.  A dataset
manifest is a key=value text file with n, M, T and per-task
design/response file paths, resolved relative to the manifest's
directory.  Manifests and the command line's configs are read by one
reader, ``KeyValueFile``, so both raise the same errors.

``write_dataset`` also saves the dataset's design store (its
C-ordered ``(T, M, n)`` ``store`` of every X_t^T) and the responses
``(T, n)`` as binary sidecars ``designs_t.npy`` and ``responses.npy``,
so a read adopts the store without transposing it, and records
``sidecar_sha256``, one SHA-256 digest over the bytes of every CSV the
manifest names and of both sidecars.  ``read_dataset`` loads the
sidecars instead of parsing the CSVs only when that digest matches and
they hold float64 arrays of exactly the manifest's shapes; otherwise
(hand-written data, an edited CSV, a missing or damaged sidecar) it
parses the CSVs, which remain the source of truth.  The store's sidecar
has its own name because at n == M no shape check can tell it from the
``(T, n, M)`` ``designs.npy`` of older writers: their datasets lack
``designs_t.npy`` and so take the CSV path.  Formatting the CSVs
is most of the cost of writing a dataset, so ``write_dataset`` writes
each task's pair on the worker pool of ``pool``; every file's bytes are
the same at any worker count, and the parent writes the sidecars,
digest and manifest after them.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np

from .model import GroupCoefficients, MultiTaskDataset
from .pool import _map_in_key_order


class ParseError(ValueError):
    """Malformed input file; the message cites file and position."""


def format_float(x):
    return f"{float(x):.17g}"


def format_value(value):
    """The text of one value in any output file: true/false for a bool,
    17 significant digits for a float, empty for None, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def format_row(values):
    """One CSV line of the values."""
    return ",".join(format_value(value) for value in values)


def keyvalue_lines(pairs):
    """One ``key=value`` line per (key, value) pair."""
    return [f"{key}={format_value(value)}" for key, value in pairs]


def record_pairs(record):
    """(field name, value) of a dataclass record, in field order."""
    return [(field.name, getattr(record, field.name)) for field in fields(record)]


def write_lines(path, lines):
    """Write each line, newline-terminated."""
    with open(path, "w") as handle:
        handle.writelines(f"{line}\n" for line in lines)


def write_records(path, records, tuple_columns=None):
    """Write dataclass records of one type as a headed CSV: a column per
    field in field order, a row per record.  A tuple-valued field spans
    one column per entry, named by ``tuple_columns[field]``."""
    header = []
    for name, value in record_pairs(records[0]):
        header += tuple_columns[name] if isinstance(value, tuple) else [name]
    rows = [header]
    for record in records:
        row = []
        for _, value in record_pairs(record):
            row += value if isinstance(value, tuple) else [value]
        rows.append(row)
    write_lines(path, map(format_row, rows))


def write_matrix_csv(path, matrix):
    """Write a 2-D array (a 1-D one as a column) as headerless CSV, each
    value formatted exactly as ``format_float`` does."""
    np.savetxt(path, np.asarray(matrix, dtype=float), fmt="%.17g", delimiter=",")


def read_matrix_csv(path, columns=None):
    """Read a headerless numeric CSV into a 2-D float array.

    Ragged rows or non-numeric cells raise ParseError naming the file,
    row, and column.  ``columns`` (if given) is enforced.
    """
    rows = []
    width = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
                if columns is not None and width != columns:
                    raise ParseError(
                        f"{path}: row {lineno} has {width} columns, expected {columns}"
                    )
            elif len(cells) != width:
                raise ParseError(
                    f"{path}: row {lineno} has {len(cells)} columns, "
                    f"previous rows have {width}"
                )
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: "
                        f"{cell!r} is not a number"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: file contains no data rows")
    return np.array(rows, dtype=float)


def read_keyvalue(path):
    """Parse a key=value file into an ordered dict of strings.

    Blank lines and lines starting with '#' are skipped.  Duplicate keys
    and lines without '=' raise ParseError.
    """
    out = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(
                    f"{path}: line {lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError(f"{path}: line {lineno}: empty key")
            if key in out:
                raise ParseError(f"{path}: line {lineno}: duplicate key {key!r}")
            out[key] = value
    return out


class KeyValueFile:
    """Typed access to a key=value file (``read_keyvalue``) that rejects
    the keys nothing read: configs and dataset manifests both go through
    it.  ``key in`` it tests for an optional key, ``get`` parses a
    required key, ``finish`` raises on the keys no ``get`` asked for,
    and ``items_used`` lists the (key, raw value) pairs that were read,
    in file order.  Every error is a ParseError naming the file."""

    def __init__(self, path):
        self.path = path
        self.raw = read_keyvalue(path)
        self.used = set()

    def __contains__(self, key):
        return key in self.raw

    def get(self, key, parse=str):
        if key not in self.raw:
            raise ParseError(f"{self.path}: missing required key {key!r}")
        self.used.add(key)
        value = self.raw[key]
        try:
            return parse(value)
        except (TypeError, ValueError):
            raise ParseError(
                f"{self.path}: key {key!r} has invalid value {value!r}"
            ) from None

    def finish(self):
        unknown = sorted(set(self.raw) - self.used)
        if unknown:
            raise ParseError(f"{self.path}: unknown keys {unknown}")

    def items_used(self):
        return [(key, self.raw[key]) for key in self.raw if key in self.used]


def write_keyvalue(path, pairs):
    write_lines(path, keyvalue_lines(pairs))


SIDECAR_DIGEST_KEY = "sidecar_sha256"
SIDECAR_NAMES = ("designs_t.npy", "responses.npy")


def _files_digest(paths):
    """SHA-256 over the SHA-256 digests of the files, in order, so bytes
    moved across a file boundary change it too; each file is hashed in
    chunks, never held whole in memory."""
    # imported here: hashlib loads OpenSSL (about 5 ms), which every
    # command would otherwise pay at start-up, dataset or not
    import hashlib

    outer = hashlib.sha256()
    for path in paths:
        inner = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                inner.update(chunk)
        outer.update(inner.digest())
    return outer.hexdigest()


def write_dataset(data, directory):
    """Write manifest.txt, per-task design/response CSVs and the
    digest-checked binary sidecars; returns the manifest path.  The CSVs
    of task t are written on the worker pool, keyed by t."""
    os.makedirs(directory, exist_ok=True)
    pairs = [("n", data.n), ("M", data.M), ("T", data.T)]
    files = []
    for t in range(data.T):
        design_name = f"task{t}_design.csv"
        response_name = f"task{t}_response.csv"
        pairs.append((f"design_{t}", design_name))
        pairs.append((f"response_{t}", response_name))
        files += [design_name, response_name]

    def write_task(t):
        write_matrix_csv(os.path.join(directory, files[2 * t]), data.designs[t])
        write_matrix_csv(os.path.join(directory, files[2 * t + 1]), data.responses[t])

    _map_in_key_order(write_task, range(data.T))
    for name, values in zip(SIDECAR_NAMES, (data.store, data.responses)):
        np.save(os.path.join(directory, name), values)
    files += SIDECAR_NAMES
    digest = _files_digest(os.path.join(directory, name) for name in files)
    pairs.append((SIDECAR_DIGEST_KEY, digest))
    manifest = os.path.join(directory, "manifest.txt")
    write_keyvalue(manifest, pairs)
    return manifest


def _load_sidecars(base, csv_paths, digest, shapes):
    """The (design store, responses) sidecars in ``base``, or None unless the
    digest over ``csv_paths`` and the sidecars matches and both hold
    C-ordered float64 arrays of exactly ``shapes``."""
    if digest is None:
        return None
    paths = [os.path.join(base, name) for name in SIDECAR_NAMES]
    arrays = []
    try:
        if _files_digest(list(csv_paths) + paths) != digest:
            return None
        for path in paths:
            # the .npy format only: never an .npz archive, never a pickle
            with open(path, "rb") as handle:
                arrays.append(np.lib.format.read_array(handle, allow_pickle=False))
    except (OSError, ValueError, EOFError):
        return None
    for array, shape in zip(arrays, shapes):
        if (array.dtype != np.float64 or array.shape != shape
                or not array.flags.c_contiguous):
            return None
    return arrays


def _size(value):
    """A dataset size: an integer of at least 1."""
    size = int(value)
    if size < 1:
        raise ValueError(value)
    return size


def read_dataset(manifest_path):
    """Load a dataset from its manifest; validates every declared shape.

    The manifest is checked in full first: integer n, M and T of at
    least 1, every design_t/response_t key, no unknown keys.  The data
    then come from the binary sidecars when their digest matches, else
    from the CSVs.  design_0 is read before the design store is
    allocated, so sizes the files do not hold fail on that file.
    """
    manifest = KeyValueFile(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    n, M, T = (manifest.get(key, _size) for key in ("n", "M", "T"))
    paths = {
        key: os.path.join(base, manifest.get(key))
        for t in range(T)
        for key in (f"design_{t}", f"response_{t}")
    }
    digest = manifest.get(SIDECAR_DIGEST_KEY) if SIDECAR_DIGEST_KEY in manifest else None
    manifest.finish()
    sidecars = _load_sidecars(base, paths.values(), digest, ((T, M, n), (T, n)))
    if sidecars is not None:
        return MultiTaskDataset._adopt(*sidecars)

    def read_csv(key, shape):
        path = paths[key]
        matrix = read_matrix_csv(path, columns=shape[1])
        if matrix.shape != shape:
            raise ParseError(
                f"{path}: expected {shape[0]} rows x {shape[1]} columns "
                f"(manifest says n={n}, M={M}), got "
                f"{matrix.shape[0]} x {matrix.shape[1]}"
            )
        return matrix

    first = read_csv("design_0", (n, M))
    store = np.empty((T, M, n))
    responses = np.empty((T, n))
    for t in range(T):
        store[t] = (first if t == 0 else read_csv(f"design_{t}", (n, M))).T
        responses[t] = read_csv(f"response_{t}", (n, 1))[:, 0]
    return MultiTaskDataset._adopt(store, responses)


def write_coefficients(beta, path):
    write_matrix_csv(path, beta.values)


def read_coefficients(path):
    return GroupCoefficients(read_matrix_csv(path))
