"""Cohort data model: CSV ingestion, standardization, alignment, feature graphs."""

from __future__ import annotations

import csv
import warnings
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from ._pool import imap_in_order

__all__ = [
    "Dataset",
    "FeatureGraph",
    "make_dataset",
    "load_dataset",
    "write_dataset_csv",
    "standardize",
    "standardize_like",
    "align_common_features",
    "load_feature_graph",
    "write_feature_graph",
    "build_laplacian",
]

DEFAULT_LABEL_COLUMN = "label"
GRAPH_HEADER = ("name_a", "name_b", "weight")


def _require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Reject anything but an integer in [``low``, ``high``] (>= ``low`` when
    ``high`` is None): NaN, fractions and bools too."""
    if (isinstance(value, bool) or not isinstance(value, Integral) or value < low
            or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _require_real(name: str, value, low: float = -np.inf, *, strict: bool = False) -> None:
    """Reject anything but a finite real number >= ``low`` (> ``low`` when
    ``strict``): NaN, infinities, bools and strings too.  A ``float`` skips the
    ``Real`` ABC check, which costs several times the rest."""
    if ((type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)))
            or not -np.inf < value < np.inf or value < low or (strict and value == low)):
        bound = f"{'>' if strict else '>='} {low:g} and " if low > -np.inf else ""
        raise ValueError(f"{name} must be {bound}finite, got {value!r}")


def _require_labeled(d: Dataset) -> None:
    if not d.labeled:
        raise ValueError("dataset has no labels")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample-major feature matrix with named columns and optional +/-1 labels.

    ``raw_mean`` and ``raw_std`` are None until the cohort is standardized,
    then the column statistics it was scaled by (population std, divisor M):
    its own from ``standardize``, the reference's from ``standardize_like``.
    Feature ranking reads ``raw_std`` to refer back to the original scale.
    A NaN or infinite entry, or a negative ``raw_std``, is refused by column.
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray | None
    raw_mean: np.ndarray | None = None
    raw_std: np.ndarray | None = None

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {self.X.shape}")
        n = self.X.shape[1]
        if len(self.feature_names) != n:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {n} columns"
            )
        if len(set(self.feature_names)) != n:
            raise ValueError("feature names must be unique")
        if self.y is not None:
            if len(self.y) != self.X.shape[0]:
                raise ValueError("label vector length does not match row count")
            if not np.all(np.isin(self.y, (-1.0, 1.0))):
                raise ValueError("labels must be +1 or -1")
        if self.raw_mean is None and self.raw_std is None:
            return
        if np.shape(self.raw_mean) != (n,) or np.shape(self.raw_std) != (n,):
            raise ValueError("raw_mean and raw_std must both hold one entry per column")
        for name, low in (("raw_mean", -np.inf), ("raw_std", 0.0)):
            stat = getattr(self, name)
            bad = np.flatnonzero(~(np.isfinite(stat) & (stat >= low)))
            if len(bad):
                j = bad[0]
                raise ValueError(f"{name} is {stat[j]} at column {self.feature_names[j]!r}")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def labeled(self) -> bool:
        return self.y is not None


def make_dataset(
    X,
    y=None,
    feature_names=None,
) -> Dataset:
    """Build an unstandardized Dataset from arrays; ``X`` is kept as given,
    non-finite cells included, and no column statistic is computed."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    if y is not None:
        y = np.asarray(y, dtype=float)
    return Dataset(feature_names=tuple(feature_names), X=X, y=y)


def load_dataset(path, label_column: str | None = None) -> Dataset:
    """Load a cohort from a headered CSV file.

    When ``label_column`` is given, that column is parsed as +1/-1 labels
    ("1"/"-1" accepted; "0" is mapped to -1 with a warning reporting how many
    values were remapped).  When it is None the cohort is loaded unlabeled.
    Cells are ASCII float literals without ``_`` separators, optionally padded
    with whitespace or double-quoted.  Ragged rows (blank lines included),
    non-numeric and non-finite (nan, inf) cells are rejected with their row
    and column.
    """
    path = Path(path)
    with _open_csv(path) as (fh, header):
        n_lines = 0

        def data_lines():  # numpy skips empty lines; the line count exposes them
            nonlocal n_lines
            for n_lines, line in enumerate(fh, 1):
                yield line

        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(
                    data_lines(), delimiter=",", comments=None, quotechar='"', ndmin=2
                )
            error = "a quoted cell spans lines"
        except ValueError as e:
            values, error = None, e

    seen = set()
    for name in header:
        if name in seen:
            raise ValueError(f"{path}: duplicate column name {name!r}")
        seen.add(name)

    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not found")
        label_idx = header.index(label_column)

    if n_lines == 0:
        raise ValueError(f"{path}: no data rows")
    if values is None or values.shape != (n_lines, len(header)) or not np.isfinite(values).all():
        raise ValueError(_locate_bad_cell(path, header) or f"{path}: {error}")

    y = None
    if label_idx is not None:
        raw = values[:, label_idx]
        zeros = int(np.sum(raw == 0.0))
        bad = ~np.isin(raw, (-1.0, 0.0, 1.0))
        if np.any(bad):
            first = raw[bad][0]
            raise ValueError(f"{path}: label value {first!r} outside accepted set {{+1, -1, 0}}")
        if zeros:
            warnings.warn(f"{path}: {zeros} label value(s) '0' mapped to -1", stacklevel=2)
        y = np.where(raw == 1.0, 1.0, -1.0)
        keep = [j for j in range(len(header)) if j != label_idx]
        values = values[:, keep]
        header = [header[j] for j in keep]

    return make_dataset(values, y=y, feature_names=header)


@contextmanager
def _open_csv(path: Path):
    """The open cohort CSV at ``path`` and its header row, read from it: the
    file is left at the first data line.  A missing or empty file is refused."""
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        yield fh, header


def _read_header(path) -> list[str]:
    """The header row of the cohort CSV at ``path``, refused as ``load_dataset``
    refuses a missing or empty file."""
    with _open_csv(Path(path)) as (_, header):
        return header


def _locate_bad_cell(path: Path, header: list[str]) -> str | None:
    """Name the first ragged row, else non-numeric cell, else non-finite cell of
    a CSV that failed to load, or return None.  A cell parses as numpy parses
    it: ``float`` syntax in ASCII, without ``_`` separators."""
    non_finite = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader, 2):
            if len(row) != len(header):
                return f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            for cell, name in zip(row, header):
                text = cell.strip()
                try:
                    if not text.isascii() or "_" in text:  # float() takes these, numpy not
                        raise ValueError(text)
                    value = float(text)
                except ValueError:
                    return f"{path}: non-numeric value {cell!r} at row {i}, column {name!r}"
                if non_finite is None and not np.isfinite(value):
                    non_finite = f"{path}: non-finite value {cell!r} at row {i}, column {name!r}"
    return non_finite


# Cells from which ``write_dataset_csv`` formats its rows in the fork pool, in
# jobs of about ``_WRITE_CHUNK_CELLS`` cells each; formatting costs about 1 us
# a cell, in ``float.__repr__``.  Cohorts 1000 columns wide on 2 vCPUs, serial
# against pooled (medians of 7): 300k cells 315 against 327 ms, 400k 310
# against 327 ms, 500k 469 against 332 ms, 1M 1.03 against 0.62 s and 2M (a
# 2000 x 1000 cohort) 1.66 against 1.07 s.
_POOLED_WRITE_CELLS = 500_000
_WRITE_CHUNK_CELLS = 125_000


def write_dataset_csv(d: Dataset, path, label_column: str = DEFAULT_LABEL_COLUMN) -> None:
    """Write a cohort as a headered CSV, with labels as +1/-1 when present.

    A cohort of ``_POOLED_WRITE_CELLS`` cells or more is formatted in
    contiguous row chunks by forked pool workers, and each chunk is written
    in row order as soon as it and every earlier one are back, so the parent
    holds a few chunks at a time and the bytes are the serial write's.
    """
    if d.labeled and label_column in d.feature_names:
        raise ValueError(f"label column {label_column!r} is also a feature name")
    X = np.asarray(d.X, dtype=float)  # integer cells would print as "1", not "1.0"
    sep = "," if X.shape[1] else ""
    labels = [f"{sep}{int(v)}\r\n" for v in d.y] if d.labeled else ["\r\n"] * len(X)
    step = max(1, _WRITE_CHUNK_CELLS // max(1, X.shape[1]))
    starts = range(0, len(X), step)

    def chunk(i: int) -> str:
        # cells are the repr of a float, as csv.writer wrote them; no such repr
        # holds a comma, a quote or a line break, so none needs quoting
        lo = starts[i]
        return "".join(",".join(map(repr, row)) + end
                       for row, end in zip(X[lo:lo + step].tolist(), labels[lo:lo + step]))

    chunks = imap_in_order(chunk, len(starts), pooled=X.size >= _POOLED_WRITE_CELLS)
    # closing: a failed write stops the pool now, not when its traceback is freed
    with closing(chunks), open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(d.feature_names) + ([label_column] if d.labeled else []))
        fh.flush()  # forked workers inherit the file object: leave them no buffered byte
        fh.writelines(chunks)


def _column_std(X: np.ndarray) -> np.ndarray:
    """Population std per column, exactly 0 where every cell equals the first:
    a constant column's rounded mean can differ from its value by an ulp."""
    std = X.std(axis=0)
    std[(X == X[:1]).all(axis=0)] = 0.0
    return std


def _rescale(d: Dataset, reference: Dataset | None, out: np.ndarray | None = None) -> Dataset:
    """Center ``d`` by a mean and divide by a std, writing 0 where the std is 0:
    ``d``'s own column statistics, or else the standardized reference cohort's.
    A non-finite cell is rejected with its row and column.  The cells go to
    ``out`` when it is given, which may be ``d.X``: the checks and statistics
    come first, and the bits are those a new array would hold."""
    if d.raw_std is not None:
        raise ValueError("dataset is already standardized")
    if reference is not None and reference.raw_std is None:
        raise ValueError("reference dataset is not standardized")
    if reference is not None and d.feature_names != reference.feature_names:
        raise ValueError("feature columns do not match the reference dataset")
    if not np.isfinite(d.X).all():
        i, j = np.argwhere(~np.isfinite(d.X))[0]
        raise ValueError(f"non-finite value {d.X[i, j]} at row {i}, column {d.feature_names[j]!r}")
    if reference is None:
        mean, std = d.X.mean(axis=0), _column_std(d.X)
    else:
        mean, std = reference.raw_mean, reference.raw_std
    scaled = np.subtract(d.X, mean, out=out)  # divided in place
    np.divide(scaled, std, out=scaled, where=std > 0)
    scaled[:, ~(std > 0)] = 0.0
    return replace(d, X=scaled, raw_mean=mean, raw_std=std)


def standardize(d: Dataset) -> Dataset:
    """Center each column to mean 0 and scale to standard deviation 1.

    Columns with zero variance become all-zeros.  ``raw_mean``/``raw_std``
    are set to the input's column statistics.  Standardizing twice is rejected.
    """
    return _rescale(d, None)


def standardize_like(d: Dataset, reference: Dataset) -> Dataset:
    """Apply a standardized reference cohort's column transform (its
    ``raw_mean``/``raw_std``, which the result carries) to ``d``.

    Used to score held-out data with a model fit on the reference cohort's
    standardized scale.  Columns the reference holds constant become zeros.
    """
    return _rescale(d, reference)


def _select_columns(d: Dataset, names: list[str]) -> Dataset:
    column = {n: j for j, n in enumerate(d.feature_names)}
    return replace(d, feature_names=tuple(names), X=d.X[:, [column[n] for n in names]])


def _common_names(name_lists, label: str | None = None) -> list[str]:
    """The names every list holds, except ``label``, sorted lexicographically;
    raises if there are none."""
    common = sorted(set.intersection(*map(set, name_lists)) - {label})
    if not common:
        raise ValueError("datasets share no feature names")
    return common


def align_common_features(*cohorts: Dataset) -> tuple[Dataset, ...]:
    """Restrict every cohort to the columns all share, ordered lexicographically.

    Labels are carried through.  Raises if the cohorts share no feature names,
    or if one is standardized: align first, then standardize.
    """
    if any(d.raw_std is not None for d in cohorts):
        raise ValueError("cohorts must be aligned before they are standardized")
    common = _common_names(d.feature_names for d in cohorts)
    return tuple(_select_columns(d, common) for d in cohorts)


@dataclass(frozen=True)
class FeatureGraph:
    """Undirected edges over feature names, weights finite and >= 0; no self-loops."""

    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        for a, b, w in self.edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            try:  # the edge is named only on failure: graphs run to thousands of edges
                _require_real("weight", w, 0.0)
            except ValueError as e:
                raise ValueError(f"edge ({a!r}, {b!r}) {e}") from None


def build_laplacian(g: FeatureGraph, feature_names) -> np.ndarray:
    """The unnormalized graph Laplacian L = D - A of ``g``, an n x n array
    over the given column order.

    Every edge endpoint must resolve to a feature name; weights of repeated
    edges accumulate.  Features without edges contribute zero rows.
    """
    names = list(feature_names)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    adj = np.zeros((n, n))
    for a, b, w in g.edges:
        if a not in index:
            raise ValueError(f"edge endpoint {a!r} is not a dataset feature")
        if b not in index:
            raise ValueError(f"edge endpoint {b!r} is not a dataset feature")
        i, j = index[a], index[b]
        adj[i, j] += w
        adj[j, i] += w
    degrees = adj.sum(axis=1)
    lap = np.subtract(0.0, adj, out=adj)  # in place; 0.0 - a, not -a: empty cells stay +0.0
    lap[np.diag_indices(n)] = degrees  # no self-loops: the diagonal of adj was 0
    return lap


def load_feature_graph(path) -> FeatureGraph:
    """Read a feature graph from a TSV with header name_a, name_b, weight."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    edges = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty graph file") from None
        if tuple(header) != GRAPH_HEADER:
            raise ValueError(f"{path}: expected header {GRAPH_HEADER}, got {tuple(header)}")
        for i, row in enumerate(reader):
            if len(row) != 3:
                raise ValueError(f"{path}: row {i + 2} has {len(row)} fields, expected 3")
            if row[0] == row[1]:
                raise ValueError(f"{path}: self-loop on {row[0]!r} at row {i + 2}")
            try:
                w = float(row[2])
            except ValueError:
                raise ValueError(f"{path}: non-numeric weight {row[2]!r} at row {i + 2}") from None
            if not 0 <= w < np.inf:
                raise ValueError(f"{path}: negative or non-finite weight {row[2]!r} at row {i + 2}")
            edges.append((row[0], row[1], w))
    return FeatureGraph(edges=tuple(edges))


def write_feature_graph(g: FeatureGraph, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(GRAPH_HEADER)
        for a, b, w in g.edges:
            writer.writerow([a, b, repr(float(w))])
