"""Output bytes that no recorded digest covers, pinned by sha256.

The violation CSV carries only counts, so the per-round ``theta_hat``,
``cr_bound`` and ``cr`` arrays of the bench violation config are pinned
here, at three seeds.  The estimate CSV and the policy-compare rows and
summary write the bounds, the threshold and the ratio bound of one
estimate or one true model; each is pinned at ``--seed 7``.  A change to
the bound arithmetic that moves one bit of any of them fails here.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from storelab import Normal, generate, parse_config, write_series
from storelab.cli import main
from storelab.experiments import run_violation_curve

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # run.py imports tracer by its bare name
    spec.loader.exec_module(module)
    return module


_load_bench("tracer")
VIOLATION_CONFIG = _load_bench("run").WORKLOADS["violation"].config

# sha256 of theta_hat, cr_bound and cr's bytes, in that order, per (seed, n)
VIOLATION_ARRAYS = {
    (3, 10): "efdd9fcff4a775eea41902cf54ec6389e591866e121e8fbf18c895ba2580bdb2",
    (3, 100): "5c121c615e98ca5ea26e711a74d718adfb5cce1b1b103d62e053b9a013fa0a99",
    (3, 1000): "6ea8b77e53eec994e6b7f66e6e80d31e6b7e803308ca8b2b45bbc102945026d5",
    (3, 10000): "b9cc0a642db405e2ce53fc1d27d7286f64e6f99c8deed64e9b62da8e3132608b",
    (7, 10): "841ef42f22f8d03e82a8944ca61f59eeed793e8598e8703225ab0c663c56f36e",
    (7, 100): "7542cc23578dc55d0b2be2cd7d75457bc1dee98dd5326af1d084ec29a3bc7066",
    (7, 1000): "9252fa50a1da33c5b54bdb7a22820cf81f9d051c54024b78d22ec2b9eb9ac6bf",
    (7, 10000): "a613fd63519e3ab10224b45a902be732ae82d3e6303b4f0dfcfb37c1159a4e4f",
    (22, 10): "5760b9001993bb6419cf63b92f6369906fcd2698a0a2d68293845c4ebb53851c",
    (22, 100): "0e7fd974c7cfeb46e4a189c9789a396ad1b2b7d5f3fb3a15beaf7b1e5c5b3a3a",
    (22, 1000): "24cf342425e915e134437c057e5e7d5ef4b7746883e8603080d6d73808e350c8",
    (22, 10000): "4b2852ffb01aab279c6d96788627ba47768328d5d0853e9bb4788474c7bf279a",
}

ESTIMATE_CSV = {
    "point": "dc5a6ed4133844cc60e9ebf4b28b5d814f4875c4e1158b846e197bf1506d205b",
    "conservative": "952a79199e1a057dc8949f56dc48797fbfceb49923d39ee0dba6f94b885082a2",
    "clamped": "471e453bc122b9eb7a723a582c0abd7b70e245776dd0d37ecf174151f09310dc",
    "clamped-conservative": "ae3ef52a6c8e5831263e1db2b4c81731bbf0f192845b9b6561547bb8f7856dfd",
    "history-file": "6cd43e50c90c7926fc9e9c909dd7f6c1303dbdb697da90ccccbb13d246bef9b5",
}

COMPARE_CSV = {
    "normal": "61d6520ba7e8e67298492555bce8622f9901e89cc3ae606ba587c06855876457",
    "normal/summary": "b8e995d9fa1ad671666e5cd0d068ee65c8d48d64d737be28163fdf9e63c67838",
    "lognormal": "fd0961f797c2dff3616c24f61499e1d59fc0ee747e08145f69f7f82d6c3dda2d",
    "lognormal/summary": "76ee414572a5898f7ec49587ec3b7fc92f5127bf046224287343d4b34a878094",
    "clamped": "e03e36a40962dd6cce6a815199332c3c317e63ced4baa854a8e404ad2e34756f",
    "clamped/summary": "df971dc410aa8e76daf9145d6e81a50ff941d4e29d1d6266f4ba64de07c4f7dd",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", (3, 7, 22))
def test_violation_round_arrays(seed, tmp_path):
    config = {**VIOLATION_CONFIG, "seed": str(seed), "out": str(tmp_path / "out.csv")}
    reports = run_violation_curve(parse_config("".join(f"{k}={v}\n" for k, v in config.items())))
    got = {
        (seed, r.n): _sha(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in (r.theta_hat, r.cr_bound, r.cr)))
        for r in reports
    }
    assert got == {key: h for key, h in VIOLATION_ARRAYS.items() if key[0] == seed}


def _history_file(tmp_path) -> str:
    path = tmp_path / "history.txt"
    write_series(path, generate(Normal(10.0, 2.0), 500, np.random.default_rng(11)))
    return str(path)


@pytest.mark.parametrize("case, sets", [
    ("point", []),
    ("conservative", ["conservative=true"]),
    ("clamped", ["mu=1"]),  # a lower bound of 1 - 3 * 2 < 0, floored by the clamp
    ("clamped-conservative", ["mu=1", "conservative=true"]),
    ("history-file", None),
])
def test_estimate_csv(case, sets, tmp_path):
    out = tmp_path / "estimate.csv"
    if sets is None:
        sets = [f"history={_history_file(tmp_path)}"]
    args = ["estimate", "--seed", "7", "--out", str(out), "--set", "history_size=500"]
    assert main(args + [a for kv in sets for a in ("--set", kv)]) == 0
    assert _sha(out.read_bytes()) == ESTIMATE_CSV[case]


@pytest.mark.parametrize("case, sets", [
    ("normal", []),
    ("lognormal", ["model=lognormal"]),
    ("clamped", ["clamp_lo=8", "clamp_hi=12"]),
])
def test_policy_compare_csvs(case, sets, tmp_path):
    out = tmp_path / "compare.csv"
    args = ["policy-compare", "--seed", "7", "--out", str(out), "--set", "episodes=20"]
    assert main(args + [a for kv in sets for a in ("--set", kv)]) == 0
    assert _sha(out.read_bytes()) == COMPARE_CSV[case]
    summary = out.with_name("compare.summary.csv").read_bytes()
    assert _sha(summary) == COMPARE_CSV[f"{case}/summary"]
