"""CSV schemas and provenance headers.

Data files: header `id,t1..tK,d1..dK,y,dtilde`; onset cells may be empty for
censored onsets (they equal y).  Latent files: `id,d,tt1..ttK` with empty
cells for onsets that never happen.  Query files: `id,t1..tK` with empty
cells for unobserved onsets.  All floats are written in shortest
round-trip form, so parse/serialize is idempotent.  Every file starts with
a `#` provenance line recording the producing command, version, seed, and
config digest.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

from . import __version__
from .data import SurvivalData
from .errors import ConfigError, DomainError
from .predict import PredictionQuery
from .simulate import LatentTruth


def provenance_line(command: str, seed, config_digest: str) -> str:
    return (
        f"# archsurv command={command} version={__version__} "
        f"seed={seed} config_sha256={config_digest}"
    )


def config_digest(items: dict) -> str:
    canon = "\n".join(f"{k}={items[k]!r}" for k in sorted(items))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _open_rows(path):
    """(header, body) of a CSV file whose `#` lines are comments: the header
    is the first row's fields, and the body pairs each later row with its
    line number in the file."""
    with open(path, newline="") as fh:
        kept = [(n, ln) for n, ln in enumerate(fh, start=1) if not ln.startswith("#")]
    reader = csv.reader(ln for _, ln in kept)
    rows = [(kept[reader.line_num - 1][0], row) for row in reader]
    if not rows:
        raise ConfigError(f"{path}: empty file")
    return rows[0][1], rows[1:]


def _parse_rows(path, header, body, parse):
    """`parse(row)` of every non-empty body row; the header fixes the field
    count.  A malformed row raises ConfigError naming the first five by
    their line in the file."""
    out, problems = [], []
    for ln, row in body:
        if not row:
            continue
        if len(row) != len(header):
            problems.append(f"line {ln}: {len(row)} fields, expected {len(header)}")
            continue
        try:
            out.append(parse(row))
        except (ValueError, DomainError) as exc:
            problems.append(f"line {ln}: {exc}")
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems[:5]))
    if not out:
        raise ConfigError(f"{path}: no data rows")
    return out


def write_data_csv(path, data: SurvivalData, header_line: str = None) -> None:
    k = data.k
    with open(path, "w", newline="") as fh:
        if header_line:
            fh.write(header_line + "\n")
        w = csv.writer(fh)
        w.writerow(
            ["id"]
            + [f"t{j + 1}" for j in range(k)]
            + [f"d{j + 1}" for j in range(k)]
            + ["y", "dtilde"]
        )
        for i in range(data.n):
            row = [str(data.ids[i])]
            row += [_fmt(data.t[i, j]) for j in range(k)]
            row += [str(int(data.delta[i, j])) for j in range(k)]
            row += [_fmt(data.y[i]), str(int(data.dtilde[i]))]
            w.writerow(row)


def read_data_csv(path) -> SurvivalData:
    header, body = _open_rows(path)
    if len(header) < 4 or header[0] != "id" or header[-2:] != ["y", "dtilde"]:
        raise ConfigError(f"{path}: expected header id,t1..tK,d1..dK,y,dtilde")
    k = (len(header) - 3) // 2
    expect = (
        ["id"]
        + [f"t{j + 1}" for j in range(k)]
        + [f"d{j + 1}" for j in range(k)]
        + ["y", "dtilde"]
    )
    if header != expect:
        raise ConfigError(f"{path}: malformed header {header}")

    def parse(row):
        y_i = float(row[1 + 2 * k])
        t_i = [float(c) if c != "" else y_i for c in row[1 : 1 + k]]
        d_i = [int(c) for c in row[1 + k : 1 + 2 * k]]
        return row[0], t_i, d_i, y_i, int(row[2 + 2 * k])

    ids, t, d, y, dt = zip(*_parse_rows(path, header, body, parse))
    try:
        return SurvivalData(t, d, y, dt, ids=np.array(ids))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_latent_csv(path, latent: LatentTruth, header_line: str = None) -> None:
    enc = latent.onset_or_inf()
    k = enc.shape[1]
    with open(path, "w", newline="") as fh:
        if header_line:
            fh.write(header_line + "\n")
        w = csv.writer(fh)
        w.writerow(["id", "d"] + [f"tt{j + 1}" for j in range(k)])
        for i in range(latent.d.size):
            row = [str(latent.ids[i]), _fmt(latent.d[i])]
            row += ["" if np.isinf(enc[i, j]) else _fmt(enc[i, j]) for j in range(k)]
            w.writerow(row)


def read_latent_csv(path):
    header, body = _open_rows(path)
    k = len(header) - 2
    if k < 1 or header != ["id", "d"] + [f"tt{j + 1}" for j in range(k)]:
        raise ConfigError(f"{path}: expected header id,d,tt1..ttK")

    def parse(row):
        d, onset = float(row[1]), [float(c) if c != "" else np.inf for c in row[2:]]
        if not 0.0 <= d < np.inf or np.isnan(onset).any():
            raise ValueError("death time must be finite and non-negative, onsets not NaN")
        return row[0], d, onset

    ids, d, onset = zip(*_parse_rows(path, header, body, parse))
    return np.array(ids), np.asarray(d), np.asarray(onset)


def write_query_csv(path, queries, k, ids=None, header_line=None) -> None:
    with open(path, "w", newline="") as fh:
        if header_line:
            fh.write(header_line + "\n")
        w = csv.writer(fh)
        w.writerow(["id"] + [f"t{j + 1}" for j in range(k)])
        for i, q in enumerate(queries):
            obs = dict(q.events)
            rid = ids[i] if ids is not None else i + 1
            w.writerow(
                [str(rid)]
                + [_fmt(obs[j]) if j in obs else "" for j in range(k)]
            )


def read_query_csv(path, k=None):
    header, body = _open_rows(path)
    if header[:1] != ["id"]:
        raise ConfigError(f"{path}: first query column must be id")
    file_k = len(header) - 1
    if k is not None and file_k != k:
        raise ConfigError(f"{path}: query has {file_k} events, model expects {k}")

    def parse(row):
        events = tuple((j, float(c)) for j, c in enumerate(row[1:]) if c != "")
        return row[0], PredictionQuery(events)

    ids, queries = zip(*_parse_rows(path, header, body, parse))
    return list(ids), list(queries)
