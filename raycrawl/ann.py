"""Similarity search over the ``embeddings`` table (``list<float>``).

- ``brute_force_topk``: exact cosine top-k — per-batch numpy matmul against
  a broadcast query matrix, per-batch partial top-k, driver merge. The
  baseline, and the SQL-checkable path (DuckDB ``list_cosine_similarity``).

Also the content-keyed index commit (``_commit_index``, ``_gc_stale_siblings``)
that ``dedup.ensure_minhash_index`` publishes its persisted index with.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa

from raycrawl.kernels import list_matrix


def _t(sf_dir: str, name: str, columns=None):
    from raycrawl.kernels import read_parquet_clean

    return read_parquet_clean(os.path.join(sf_dir, f"{name}.parquet"),
                              columns=columns)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def query_vector(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    """Deterministic query = the embedding of ``vec_id`` (both engines can
    reference it)."""
    import pyarrow.parquet as pq
    import pyarrow.compute as pc_

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    idx = pc_.index(t["vec_id"], pa.scalar(vec_id, pa.int64())).as_py()
    return np.asarray(t["embedding"][idx].as_py(), dtype=np.float64)


def brute_force_topk(sf_dir: str, query_id: int = 0, k: int = 20) -> pa.Table:
    """Exact cosine top-k vs the query_id's vector: (vec_id, cos) rounded to
    6dp; excludes the query row itself; ties broken by vec_id."""
    q = query_vector(sf_dir, query_id)
    qn = q / max(np.linalg.norm(q), 1e-12)

    def partial(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy()
        m = _normalize(list_matrix(t["embedding"]))
        cos = m @ qn
        mask = ids != query_id
        ids, cos = ids[mask], cos[mask]
        # per-batch partial top-k (driver merges tiny partials)
        if len(ids) > k:
            order = np.lexsort((ids, -cos))[:k]
            ids, cos = ids[order], cos[order]
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cos": pa.array(cos, pa.float64())})

    parts = (
        _t(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    order = np.lexsort((parts["vec_id"].to_numpy(), -parts["cos"].to_numpy()))[:k]
    out = parts.iloc[order]
    return pa.table(
        {
            "vec_id": pa.array(out["vec_id"].to_numpy(), pa.int64()),
            "cos": pa.array(np.round(out["cos"].to_numpy(), 6), pa.float64()),
        }
    )


def brute_force_topk_sql(query_id: int = 0, k: int = 20) -> str:
    return f"""
    SELECT e.vec_id,
           round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                        CAST(q.embedding AS DOUBLE[])), 6) AS cos
    FROM embeddings e,
         (SELECT embedding FROM embeddings WHERE vec_id = {query_id}) q
    WHERE e.vec_id <> {query_id}
    ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    CAST(q.embedding AS DOUBLE[])) DESC, e.vec_id
    LIMIT {k}
    """


def _commit_index(tmp: str, out: str) -> bool:
    """Atomic publish: rename the fully-built temp dir into place. Two
    concurrent builders race on the rename; the loser discards its copy
    (the winner's content-keyed index is equivalent)."""
    import shutil

    try:
        os.rename(tmp, out)
    except OSError as e:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.exists(os.path.join(out, "_SUCCESS")):
            # not a lost race — surface the real cause here, not as a
            # FileNotFoundError far downstream
            raise RuntimeError(f"index publish failed for {out}") from e
    _gc_stale_siblings(out)
    return True


def _gc_stale_siblings(out: str, grace_sec: float = 600.0) -> None:
    """Drop SAME-dataset indexes with an OUTDATED content tag (dir name =
    '<path_hash>-<content_hash>_<params>'): every corpus regeneration
    would otherwise strand a full index copy under /tmp forever. Matching
    is on the path hash with a DIFFERENT content hash — same-content
    param variants (e.g. two band shapes of one corpus) are kept, so committing
    one variant can't thrash-rebuild another (ADVICE r3). Dirs younger
    than ``grace_sec`` are also kept: a concurrent query may be mid-read
    in an index that was only just superseded."""
    import shutil

    root, name = os.path.split(out)
    path_prefix = name.split("-", 1)[0] + "-"          # '<phash>-'
    content_prefix = name.split("_", 1)[0]             # '<phash>-<chash>'
    now = time.time()
    for d in os.listdir(root):
        if (not d.startswith(path_prefix) or d == name or ".tmp." in d
                or d.split("_", 1)[0] == content_prefix):
            continue
        try:
            if now - os.stat(os.path.join(root, d)).st_mtime < grace_sec:
                continue
        except OSError:
            continue
        shutil.rmtree(os.path.join(root, d), ignore_errors=True)
