"""Correctness coverage for the DEMOTED registry — the operator variants
kept out of the driver's 50-row sweep window (tests/test_contract_wiring
pins the window contents). Every oracled demoted query is compared to its
DuckDB oracle at sf0.001 with the driver's own canonicalization; the six
rows-only approximate ops are exercised for shape (their exactness
envelopes are pinned by dedicated pytests elsewhere)."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _mod():
    import importlib.util
    import os

    # this checkout's registry, wherever it lives
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(root, "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def registries():
    m = _mod()
    return m.demoted_queries(), m.demoted_oracle_sql()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _names():
    dq, do = _mod().demoted_queries(), _mod().demoted_oracle_sql()
    return sorted(do), sorted(set(dq) - set(do))


ORACLED, ROWS_ONLY = _names()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ORACLED)
def test_demoted_oracled(name, registries, con):
    dq, do = registries
    res = dq[name](SF)
    got = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    ora = con.execute(do[name]).df()
    a, b = _canon(got), _canon(ora)
    assert len(a) == len(b), (len(a), len(b))
    assert list(a.columns) == list(b.columns), (a.columns, b.columns)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ROWS_ONLY)
def test_demoted_rows_only(name, registries):
    dq, _ = registries
    res = dq[name](SF)
    got = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    assert len(got) >= 1
    assert len(got.columns) >= 2
