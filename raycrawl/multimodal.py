"""Multimodal column plumbing: opaque ``binary`` payloads + typed metadata,
decoded / feature-extracted by actor-pool ``map_batches`` stages.

The sandbox has no image/audio libraries, so the *codec* is stubbed:
``decode_image`` tries Pillow and otherwise falls back to parsing our
deterministic synthetic header (or raises ``NotImplementedError`` for
payloads it can't parse). The Ray-side plumbing — schema, batch sizing for
large binary rows, actor signature, output layout — is real and tested;
swapping the stub for a real codec is a one-function change.

Synthetic media: ``make_media_table`` derives a deterministic pseudo-image
per document (header: magic ``RCIM`` + width + height + channels; body:
seeded bytes), so decode → resize → feature stages have real bytes to move
through the object store.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

from raycrawl.kernels import hash64_int, md5_u64, table_from_pandas

_MAGIC = b"RCIM"


def _t(sf_dir: str, name: str, columns=None):
    from raycrawl.kernels import read_parquet_clean

    return read_parquet_clean(os.path.join(sf_dir, f"{name}.parquet"),
                              columns=columns)


MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),           # "image" (audio/video analogous)
        ("payload", pa.binary()),        # opaque encoded bytes
        ("declared_w", pa.int32()),
        ("declared_h", pa.int32()),
    ]
)


def synth_payload(media_id: int) -> tuple[bytes, int, int]:
    """Deterministic pseudo-image: RCIM header + seeded body bytes.

    Dimensions derive from ``md5_u64`` (== DuckDB ``md5_number_lower``) so
    the SQL oracle can recompute width/height independently."""
    h64 = md5_u64(f"media:{media_id}")
    w = 16 + (h64 % 48)           # 16..63
    h = 16 + ((h64 >> 8) % 48)
    c = 3
    rng = np.random.default_rng(h64 % (1 << 32))
    body = rng.integers(0, 256, size=w * h * c, dtype=np.uint8).tobytes()
    return _MAGIC + struct.pack("<HHB", w, h, c) + body, int(w), int(h)


def make_media_batch(t: pa.Table) -> pa.Table:
    ids = t["doc_id"].to_pylist()
    payloads, ws, hs = [], [], []
    for i in ids:
        p, w, h = synth_payload(int(i))
        payloads.append(p)
        ws.append(w)
        hs.append(h)
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(["image"] * len(ids), pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "declared_w": pa.array(ws, pa.int32()),
            "declared_h": pa.array(hs, pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )


def media_table(sf_dir: str):
    """documents → synthetic media Dataset (binary payload per doc).

    Batch sizing note: binary payloads are KB-scale here but MB-scale in
    production — callers set small ``batch_size`` (256 below) so
    batch × concurrency stays within worker heap (ray_guide memory rules).
    """
    return _t(sf_dir, "documents", ["doc_id"]).map_batches(
        make_media_batch, batch_format="pyarrow", batch_size=256
    )


def decode_image(payload: bytes) -> np.ndarray:
    """payload → HxWxC uint8 array. Pillow when available; otherwise the
    synthetic RCIM codec; anything else → NotImplementedError (a real
    deployment plugs a codec in here)."""
    try:  # pragma: no cover - Pillow absent in this container
        import io

        from PIL import Image

        return np.asarray(Image.open(io.BytesIO(payload)).convert("RGB"))
    except ImportError:
        pass
    if payload[:4] == _MAGIC:
        w, h, c = struct.unpack("<HHB", payload[4:9])
        return np.frombuffer(payload[9 : 9 + w * h * c], dtype=np.uint8).reshape(h, w, c)
    raise NotImplementedError(
        "no codec available for this payload (container has no image libs)"
    )


class MediaFeatureActor:
    """Actor-pool stage: decode → resize (nearest) → channel statistics.

    Stateful-stage shape: (simulated) model/codec setup happens ONCE in
    __init__; __call__ is per batch. Passed to
    ``map_batches(MediaFeatureActor, concurrency=N, batch_size=B)``.
    """

    def __init__(self, target: int = 8):
        self.target = target
        # stand-in for codec/model initialization (once per actor)
        self._init_token = hash64_int("media-actor-init")

    def _resize_nearest(self, img: np.ndarray) -> np.ndarray:
        h, w = img.shape[:2]
        yi = (np.arange(self.target) * h // self.target).clip(0, h - 1)
        xi = (np.arange(self.target) * w // self.target).clip(0, w - 1)
        return img[yi][:, xi]

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["media_id"].to_pylist()
        payloads = t["payload"].to_pylist()
        rows = {
            "media_id": [], "width": [], "height": [], "channels": [],
            "mean_r": [], "mean_g": [], "mean_b": [], "thumb": [], "decode_ok": [],
        }
        for mid, p in zip(ids, payloads):
            rows["media_id"].append(mid)
            try:
                img = decode_image(p)
            except NotImplementedError:
                rows["width"].append(0)
                rows["height"].append(0)
                rows["channels"].append(0)
                for k in ("mean_r", "mean_g", "mean_b"):
                    rows[k].append(0.0)
                rows["thumb"].append(b"")
                rows["decode_ok"].append(False)
                continue
            h, w, c = img.shape
            rows["width"].append(w)
            rows["height"].append(h)
            rows["channels"].append(c)
            means = img.reshape(-1, c).mean(axis=0)
            rows["mean_r"].append(float(means[0]))
            rows["mean_g"].append(float(means[1 % c]))
            rows["mean_b"].append(float(means[2 % c]))
            rows["thumb"].append(self._resize_nearest(img).tobytes())
            rows["decode_ok"].append(True)
        return pa.table(
            {
                "media_id": pa.array(rows["media_id"], pa.int64()),
                "width": pa.array(rows["width"], pa.int32()),
                "height": pa.array(rows["height"], pa.int32()),
                "channels": pa.array(rows["channels"], pa.int32()),
                "mean_r": pa.array(rows["mean_r"], pa.float64()),
                "mean_g": pa.array(rows["mean_g"], pa.float64()),
                "mean_b": pa.array(rows["mean_b"], pa.float64()),
                "thumb": pa.array(rows["thumb"], pa.binary()),
                "decode_ok": pa.array(rows["decode_ok"], pa.bool_()),
            }
        )


def media_features(sf_dir: str, concurrency: int | None = None):
    """Full multimodal pipeline: synth media → actor-pool decode+feature.

    Pool sizing: the actor pool must never hold EVERY cluster CPU or the
    producer (read→synth) task stage starves and the pipeline deadlocks
    (seen on a 4-CPU cluster with a fixed concurrency=4 × 1-CPU pool).
    Actors take fractional CPUs (0.5) and the pool is capped at
    cluster_CPUs − 1 so at least one whole CPU is always left for task
    stages, whatever the cluster size.
    """
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    if concurrency is None:
        concurrency = max(1, min(8, cpus - 1))
    else:
        concurrency = max(1, min(concurrency, max(1, cpus - 1)))
    return media_table(sf_dir).map_batches(
        MediaFeatureActor,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
        num_cpus=0.5,
    )


def media_summary(sf_dir: str) -> pa.Table:
    """Aggregate over decoded features (SQL-oracle-able on declared dims:
    width/height come deterministically from the payload header)."""
    feats = media_features(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table(
            {
                "decode_ok": t["decode_ok"],
                "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "sum_w": t["width"].cast(pa.int64()),
                "sum_h": t["height"].cast(pa.int64()),
            }
        )
        return t2.group_by("decode_ok").aggregate(
            [("n", "sum"), ("sum_w", "sum"), ("sum_h", "sum")]
        )

    import pandas as pd

    parts = feats.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("decode_ok", as_index=False).sum()
    out = pd.DataFrame(
        {
            "decode_ok": g["decode_ok"],
            "n_media": g["n_sum"].astype("int64"),
            "sum_width": g["sum_w_sum"].astype("int64"),
            "sum_height": g["sum_h_sum"].astype("int64"),
        }
    ).sort_values("decode_ok")
    return table_from_pandas(out)


def media_summary_sql() -> str:
    """Width/height are header fields derived from md5_u64('media:<id>')
    == DuckDB md5_number_lower, so the oracle recomputes them from doc_id
    alone; the synthetic codec decodes every payload (decode_ok ≡ true)."""
    return """
    WITH m AS (SELECT
        16 + (md5_number_lower('media:' || CAST(doc_id AS VARCHAR)) % 48) AS w,
        16 + ((md5_number_lower('media:' || CAST(doc_id AS VARCHAR)) >> 8) % 48) AS h
      FROM documents)
    SELECT TRUE AS decode_ok, CAST(count(*) AS BIGINT) AS n_media,
           CAST(sum(w) AS BIGINT) AS sum_width, CAST(sum(h) AS BIGINT) AS sum_height
    FROM m GROUP BY 1 ORDER BY decode_ok
    """
