"""File formats: numeric CSV, dataset manifests, and key=value configs.

Floats are written with 17 significant digits so double precision
round-trips exactly through text.  CSV files have no header, use '.' as
the decimal separator, and one row per line.  A dataset manifest is a
key=value text file with n, M, T and per-task design/response file
paths, resolved relative to the manifest's directory.

``write_dataset`` also saves the designs ``(T, n, M)`` and responses
``(T, n)`` as binary sidecars ``designs.npy`` and ``responses.npy`` and
records ``sidecar_sha256``, one SHA-256 digest over the bytes of every
CSV the manifest names and of both sidecars.  ``read_dataset`` loads the
sidecars instead of parsing the CSVs only when that digest matches and
they hold float64 arrays of exactly the manifest's shapes; otherwise
(hand-written data, an edited CSV, a missing or damaged sidecar) it
parses the CSVs, which remain the source of truth.
"""

from __future__ import annotations

import os

import numpy as np

from .model import GroupCoefficients, MultiTaskDataset


class ParseError(ValueError):
    """Malformed input file; the message cites file and position."""


def format_float(x):
    return f"{float(x):.17g}"


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


def write_keyvalue(path, pairs):
    with open(path, "w") as handle:
        for key, value in pairs:
            handle.write(f"{key}={value}\n")


SIDECAR_DIGEST_KEY = "sidecar_sha256"
SIDECAR_NAMES = ("designs.npy", "responses.npy")


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
    digest-checked binary sidecars; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    pairs = [("n", data.n), ("M", data.M), ("T", data.T)]
    files = []
    for t in range(data.T):
        design_name = f"task{t}_design.csv"
        response_name = f"task{t}_response.csv"
        write_matrix_csv(os.path.join(directory, design_name), data.designs[t])
        write_matrix_csv(os.path.join(directory, response_name), data.responses[t])
        pairs.append((f"design_{t}", design_name))
        pairs.append((f"response_{t}", response_name))
        files += [design_name, response_name]
    for name, values in zip(SIDECAR_NAMES, (data.designs, data.responses)):
        np.save(os.path.join(directory, name), values)
    files += SIDECAR_NAMES
    digest = _files_digest(os.path.join(directory, name) for name in files)
    pairs.append((SIDECAR_DIGEST_KEY, digest))
    manifest = os.path.join(directory, "manifest.txt")
    write_keyvalue(manifest, pairs)
    return manifest


def _load_sidecars(base, csv_paths, digest, shapes):
    """The (designs, responses) sidecars in ``base``, or None unless the
    digest over ``csv_paths`` and the sidecars matches and both hold
    float64 arrays of exactly ``shapes``."""
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
        if array.dtype != np.float64 or array.shape != shape:
            return None
    return arrays


def read_dataset(manifest_path):
    """Load a dataset from its manifest; validates every declared shape.

    The manifest is checked in full first: integer n, M and T, every
    design_t/response_t key, no unknown keys.  The data then come from
    the binary sidecars when their digest matches, else from the CSVs.
    """
    entries = read_keyvalue(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def need(key):
        if key not in entries:
            raise ParseError(f"{manifest_path}: missing required key {key!r}")
        return entries.pop(key)

    def need_int(key):
        raw = need(key)
        try:
            return int(raw)
        except ValueError:
            raise ParseError(
                f"{manifest_path}: key {key!r} must be an integer, got {raw!r}"
            ) from None

    n = need_int("n")
    M = need_int("M")
    T = need_int("T")
    paths = {
        key: os.path.join(base, need(key))
        for t in range(T)
        for key in (f"design_{t}", f"response_{t}")
    }
    digest = entries.pop(SIDECAR_DIGEST_KEY, None)
    if entries:
        raise ParseError(
            f"{manifest_path}: unknown keys {sorted(entries)}"
        )
    sidecars = _load_sidecars(base, paths.values(), digest, ((T, n, M), (T, n)))
    if sidecars is not None:
        return MultiTaskDataset(*sidecars)

    designs = np.empty((T, n, M))
    responses = np.empty((T, n))
    for t in range(T):
        for key, target, shape in (
            (f"design_{t}", designs, (n, M)),
            (f"response_{t}", responses, (n, 1)),
        ):
            path = paths[key]
            matrix = read_matrix_csv(path, columns=shape[1])
            if matrix.shape != shape:
                raise ParseError(
                    f"{path}: expected {shape[0]} rows x {shape[1]} columns "
                    f"(manifest says n={n}, M={M}), got "
                    f"{matrix.shape[0]} x {matrix.shape[1]}"
                )
            target[t] = matrix if key.startswith("design") else matrix[:, 0]
    return MultiTaskDataset(designs, responses)


def write_coefficients(beta, path):
    write_matrix_csv(path, beta.values)


def read_coefficients(path):
    return GroupCoefficients(read_matrix_csv(path))
