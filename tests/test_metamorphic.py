"""Scale relations of every runner, compared bit for bit through the CLI.

Multiplying by a power of two is exact in binary floating point, short of
overflow and underflow, and every step the runners take commutes with it:
sums and differences, products and quotients, the square root of a product
or of a square, comparisons, sorting, ``linspace`` and the quantile
constants.  So scaling the price model's ``mu`` and ``sigma`` by 2^k scales
every price and every cost a run writes by 2^k exactly and leaves every
ratio, count and flag as it was; scaling the energies (the capacity ``B``,
the initial fill ``s0`` and the demand) by 2 scales every cost and leaves
the prices alone.  These relations need no stored answer, so they check
the runners even across changes that move the recorded digests.  A
history file scaled value by value by 2^k does the same for the runners
that read one.
"""

import csv

import pytest

from storelab import Normal, generate, write_series
from storelab.cli import main

# each column's unit, as the exponents of the price and the energy scale:
# a price (1, 0), a cost (1, 1), a ratio, count, flag or label (0, 0)
PRICE, COST, PLAIN = (1, 0), (1, 1), (0, 0)
UNITS = {
    # estimate
    "n": PLAIN, "alpha": PLAIN, "mean": PRICE, "s": PRICE, "mu_lo": PRICE, "mu_hi": PRICE,
    "sigma_lo": PRICE, "sigma_hi": PRICE, "m_hat": PRICE, "M_hat": PRICE, "theta_hat": PRICE,
    "conservative": PLAIN,
    # violation curve (its stderr is p_hat's)
    "p_hat": PLAIN, "stderr": PLAIN, "violations": PLAIN, "failures": PLAIN, "rounds": PLAIN,
    # policy-compare rows and summary, relax
    "round": PLAIN, "policy_id": PLAIN, "alg_cost": COST, "opt_cost": COST, "cr": PLAIN,
    "cr_bound": PLAIN, "violated": PLAIN, "regret": COST, "seed": PLAIN, "mean_cost": COST,
    "regret_stderr": COST, "cr_p50": PLAIN, "cr_p95": PLAIN, "cr_max": PLAIN, "scenario": PLAIN,
    # adaptive
    "warmup": PLAIN, "refresh": PLAIN, "regret_vs_dp": COST, "stderr_vs_dp": COST,
    "regret_vs_offline": COST, "stderr_vs_offline": COST,
}

MU, SIGMA = 10.0, 2.0
RUNS = {
    "estimate": ["history_size=300", "conservative=true"],
    # small samples, so that some rounds violate their bound
    "violation-curve": ["n_grid=3,10,100", "rounds=30", "history_size=500"],
    "policy-compare": ["episodes=40"],
    "adaptive": ["warmup_grid=10,100", "refresh_grid=inf,6", "rounds=2", "episodes=4"],
    # the lognormal scenario is left out: ``LogNormal.from_moments`` fits its
    # model to mu and sigma through logarithms, so scaling them shifts its
    # log-mean by k ln 2, which no floating-point step carries exactly
    "relax": ["episodes=30", "scenarios=baseline,ar1,demand-noise"],
}


def _run(tmp_path, name, command, sets) -> dict:
    """Each CSV the run writes, by file name: its header and rows."""
    out = tmp_path / name / "out.csv"
    out.parent.mkdir()
    argv = [command, "--seed", "7", "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    tables = {}
    for path in sorted(out.parent.iterdir()):
        with path.open(newline="") as f:
            header, *rows = csv.reader(f)
        tables[path.name] = (header, rows)
    return tables


def _assert_scaled(base: dict, scaled: dict, price: float, energy: float) -> None:
    """Every cell of ``scaled`` is its ``base`` cell times its unit's scale, bit for bit."""
    assert base.keys() == scaled.keys()
    for name, (header, rows) in base.items():
        got_header, got_rows = scaled[name]
        assert got_header == header
        assert len(got_rows) == len(rows)
        factors = [price ** UNITS[c][0] * energy ** UNITS[c][1] for c in header]
        for row, got in zip(rows, got_rows):
            want = [v if f == 1.0 else repr(float(v) * f) for v, f in zip(row, factors)]
            assert got == want, (name, header)


@pytest.mark.parametrize("command", list(RUNS))
def test_prices_times_a_power_of_two(tmp_path, command):
    base = _run(tmp_path, "base", command, RUNS[command] + [f"mu={MU!r}", f"sigma={SIGMA!r}"])
    for k in (-3, -1, 1, 3):
        scale = 2.0**k
        scaled = _run(tmp_path, f"k{k}", command,
                      RUNS[command] + [f"mu={MU * scale!r}", f"sigma={SIGMA * scale!r}"])
        _assert_scaled(base, scaled, scale, 1.0)


# runs that read a history file instead of synthesizing one; held out, a
# violation round also scores its threshold on windows of the history
HISTORY_RUNS = {
    "estimate-point": ("estimate", []),
    "estimate-conservative": ("estimate", ["conservative=true"]),
    "violation-with-replacement": ("violation-curve", [
        "n_grid=3,10,100", "rounds=30", "eval_source=held-out",
        "resample_mode=with-replacement",
    ]),
    "violation-prefix": ("violation-curve", [
        "n_grid=3,10,100", "rounds=30", "eval_source=held-out", "resample_mode=prefix",
    ]),
}


@pytest.mark.parametrize("run", list(HISTORY_RUNS))
def test_history_file_times_a_power_of_two(tmp_path, run):
    command, sets = HISTORY_RUNS[run]
    history = generate(Normal(MU, SIGMA), 500, seed=31)

    def scaled_run(name, scale):
        path = tmp_path / f"{name}.txt"
        write_series(path, history * scale)
        return _run(tmp_path, name, command, sets + [f"history={path}"])

    base = scaled_run("base", 1.0)
    for k in (-3, -1, 1, 3):
        _assert_scaled(base, scaled_run(f"k{k}", 2.0**k), 2.0**k, 1.0)


def test_energies_times_two(tmp_path):
    # an uneven demand and a partial initial fill, so that the store's bounds
    # bind at different slots; every energy here lies far above the absolute
    # energy tolerances (1e-9), near which the relation could break
    demand = [0.5, 1.0, 1.5, 2.0, 1.0, 0.25] * 4

    def energies(scale):
        vector = ",".join(repr(d * scale) for d in demand)
        return [f"B={5.0 * scale!r}", f"s0={1.5 * scale!r}", f"demand=vector:{vector}"]

    sets = RUNS["policy-compare"]
    base = _run(tmp_path, "base", "policy-compare", sets + energies(1.0))
    doubled = _run(tmp_path, "doubled", "policy-compare", sets + energies(2.0))
    _assert_scaled(base, doubled, 1.0, 2.0)
