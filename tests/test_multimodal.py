"""Multimodal plumbing tests: schema, actor-pool decode, stubbed codec."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_media_pipeline_end_to_end():
    from raycrawl.multimodal import media_features

    df = media_features(SF, concurrency=2).to_pandas()
    assert len(df) == 500
    assert df["decode_ok"].all()  # synthetic codec decodes every payload
    assert (df["width"] >= 16).all() and (df["width"] < 64).all()
    # thumbnail bytes = 8x8xC
    assert (df["thumb"].str.len() == 8 * 8 * df["channels"]).all()


def test_decode_stub_paths():
    from raycrawl.multimodal import decode_image, synth_payload

    p, w, h = synth_payload(7)
    img = decode_image(p)
    assert img.shape == (h, w, 3) and img.dtype == np.uint8
    with pytest.raises(NotImplementedError):
        decode_image(b"\x89PNG\r\n\x1a\nnot-actually-a-png")


def test_payload_deterministic():
    from raycrawl.multimodal import synth_payload

    assert synth_payload(42) == synth_payload(42)
    assert synth_payload(42) != synth_payload(43)


@pytest.mark.usefixtures("ray_session")
def test_media_summary_counts():
    from raycrawl.multimodal import media_summary

    t = media_summary(SF).to_pandas()
    assert t["n_media"].sum() == 500


def test_media_summary_no_deadlock_on_tiny_cluster():
    """Regression (VERDICT r1): a fixed-size actor pool used to hold every
    CPU on small clusters and starve the producer stage forever. The
    pipeline must complete on a 2-CPU cluster in bounded time."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import ray, sys\n"
        "ray.init(address='local', num_cpus=2, include_dashboard=False,"
        " logging_level='ERROR')\n"
        f"sys.path.insert(0, {root!r})\n"
        "from raycrawl.multimodal import media_summary\n"
        "t = media_summary('/root/testdata/sf0.001').to_pandas()\n"
        "assert t['n_media'].sum() == 500\n"
        "ray.shutdown()\n"
        "print('OK2CPU')\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=240)
    assert "OK2CPU" in r.stdout, r.stderr[-2000:]
