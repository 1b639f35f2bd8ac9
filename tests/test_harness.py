import copy
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import MISSING, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from crossbt import harness
from crossbt.buckets import compute_covariates, rerandomize
from crossbt.cli import DEMO_CONFIG, EXIT_ERROR, main
from crossbt.engine import (
    CONVENTIONS,
    REFERENCE,
    CostSpec,
    EngineConvention,
    WeightSchedule,
    annual_turnover,
    performance_metrics,
    resolve_convention,
    run_buckets,
    run_variant,
)
from crossbt.harness import (
    CellResult,
    BucketConfig,
    ReportBundle,
    ResultStore,
    RunConfig,
    analyze,
    emit_reports,
    partition_args,
    run_suite,
    validate_results,
)
from crossbt.marketdata import SynthSpec, descriptive_stats, generate_synthetic, write_prices_csv
from crossbt.strategies import BENCHMARKS
from crossbt.stats import cluster_bootstrap, lin_ccc
from oracles import (
    analyze_loop,
    cluster_bootstrap_per_draw,
    load_equity_loop,
    resampled_rho_per_draw,
    save_equity_loop,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI in a fresh interpreter; with "block", any import of scipy fails.
NO_SCIPY_CLI = '''
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
import crossbt.cli

if scipy_modules():
    sys.exit(f"import crossbt.cli loaded {scipy_modules()}")
code = crossbt.cli.main(sys.argv[2:])
if scipy_modules():
    sys.exit(f"the run loaded {scipy_modules()}")
sys.exit(code)
'''


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _config(**overrides) -> RunConfig:
    base = dict(
        seed=3,
        synth=SynthSpec(n_assets=18, n_days=140, seed=3, annual_vol=0.25, annual_drift=0.06),
        buckets=BucketConfig(n_buckets=3, bucket_size=6, n_candidates=20),
        benchmarks=("bm01", "bm02", "bm09"),
        engines=("reference", "pre_trade"),
        permutation_draws=200,
        bootstrap_draws=100,
    )
    base.update(overrides)
    return RunConfig(**base)


def _number(lo: float, hi: float):
    """A number in [lo, hi], spelled as a JSON integer or float."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


@st.composite
def _config_files(draw) -> dict:
    """A valid config file over DEMO_CONFIG's panel: each number spelled as an
    int or a float, engines by preset name or by id, one of them listed twice."""
    regimes = [draw(st.sampled_from([bps, float(bps)])) for bps in (0, 18, 36, 60)]
    engines = draw(st.lists(st.sampled_from([*CONVENTIONS, *(c.id for c in CONVENTIONS.values())]), min_size=2))
    assume(len({resolve_convention(e) for e in engines}) >= 2)
    sectors = st.permutations([f"SEC{i % 6}" for i in range(36)])
    return {
        "seed": draw(st.integers(0, 2**32)),
        "synthetic": {
            **DEMO_CONFIG["synthetic"],
            "seed": draw(st.none() | st.integers(0, 2**32)),
            "annual_drift": draw(_number(-1, 1) | st.fixed_dictionaries({f"SEC{i}": _number(-1, 1) for i in range(6)})),
            "annual_vol": draw(_number(0, 1) | st.lists(_number(0, 1), min_size=36, max_size=36)),
            "correlation": draw(_number(0, 0.99)),
            "sectors": draw(st.none() | sectors),
            "start_price": draw(_number(1, 1e4)),
        },
        "buckets": {"n_candidates": draw(st.integers(1, 50)), "seed": draw(st.none() | st.integers(0, 99))},
        "benchmarks": draw(st.lists(st.sampled_from(sorted(BENCHMARKS)), min_size=1, max_size=4, unique=True)),
        "engines": [*engines, engines[0]],
        "cost_regimes_bps": regimes,
        "cost_overrides_bps": draw(st.dictionaries(st.sampled_from(sorted(BENCHMARKS)), st.sampled_from(regimes))),
        "initial_capital": draw(_number(1, 1e9)),
        "warmup": draw(st.none() | st.integers(0, 100)),
        "aum": draw(_number(0, 1e12)),
        "daf_reference": draw(st.sampled_from(sorted(BENCHMARKS))),
        "tost_margins_pp": draw(st.lists(_number(0.01, 5), min_size=1, max_size=3)),
        "fdr_q": draw(_number(0.001, 1)),
    }


#: The JSON types a config file may spell each annotation part with.
_JSON_TYPES = {
    "None": (type(None),), "int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
    "tuple[str, ...]": (list,), "tuple[float, ...]": (list,), "Mapping[str, float]": (dict,),
    "BucketConfig": (dict,), "SynthSpec": (dict,),
}

#: Each config key: the path of its record in the file, and its field.
_CONFIG_FIELDS = [
    *(((), f) for f in fields(RunConfig)),
    *((("buckets",), f) for f in fields(BucketConfig)),
    *((("synthetic",), f) for f in fields(SynthSpec)),
]

#: Each config key whose value is or holds numbers.
_NUMBER_FIELDS = [(path, f) for path, f in _CONFIG_FIELDS if "float" in f.type]

_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def demo_store():
    return run_suite(_config())


@pytest.fixture(scope="module")
def demo_bundle(demo_store):
    return analyze(demo_store)


@pytest.fixture(scope="module")
def wide_store():
    """Four engines (six pairs) over four buckets, so damage leaves pairs behind."""
    return run_suite(
        _config(
            buckets=BucketConfig(n_buckets=4, bucket_size=4, n_candidates=20),
            engines=("reference", "pre_trade", "percent_divided", "double_commission"),
        )
    )


class TestRunConfig:
    def test_roster_dedup_and_sort(self):
        cfg = _config(engines=("pre_trade", "reference", "post|abs|x1|atomic|aligned|full"))
        ids = [eid for eid, _ in cfg.roster()]
        assert ids == sorted(ids)
        assert len(ids) == 2

    def test_needs_two_engines(self):
        with pytest.raises(ValueError):
            _config(engines=("reference", "post|abs|x1|atomic|aligned|full"))

    def test_cost_regime_membership_enforced(self):
        with pytest.raises(ValueError):
            _config(cost_regimes_bps=(18.0,), benchmarks=("bm01", "bm09"))

    @pytest.mark.parametrize("bps", [1e4, -18.0])
    def test_cost_outside_the_rate_range_rejected(self, bps):
        # The cost is a listed regime, so only the range check can refuse it.
        with pytest.raises(ValueError, match="benchmark bm01 cost"):
            _config(cost_overrides_bps={"bm01": bps}, cost_regimes_bps=(bps, 0.0, 18.0, 36.0, 60.0))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmarks: \\['bm99'\\]"):
            _config(benchmarks=("bm99",))
        # An override for an unregistered id would never apply, yet would
        # enter the run id.
        with pytest.raises(ValueError, match="unknown benchmarks: \\['bm1'\\]"):
            _config(benchmarks=("bm01",), cost_overrides_bps={"bm1": 9.0})
        # A registered benchmark the run leaves out may keep its override.
        _config(benchmarks=("bm01",), cost_overrides_bps={"bm02": 25.0})

    @pytest.mark.parametrize("key, bad, edge", [
        ("permutation_draws", -1, 0),
        ("bootstrap_draws", 0, 1),
        ("aum", -5.0, 0.0),
        ("warmup", -3, 0),
        ("initial_capital", 0.0, 1e-6),
        ("fdr_q", 1.5, 1.0),
        ("fdr_q", 0.0, 1e-6),
        ("tost_margins_pp", (0.1, 0.0), (0.1, 1e-6)),
        # A registered reference the run leaves out stays legal: a run of a
        # benchmark subset may omit bm01.
        ("daf_reference", "bm1", "bm12"),
    ])
    def test_out_of_range_value_rejected(self, key, bad, edge):
        # Refused when the config is built, naming the key; the nearest legal
        # value builds.
        with pytest.raises(ValueError, match=f"^{key} must be "):
            _config(**{key: bad})
        _config(**{key: edge})

    @pytest.mark.parametrize("key, bad, edge", [
        ("aum", math.inf, 1e300),
        ("initial_capital", math.inf, 1e300),
        ("tost_margins_pp", (0.1, math.inf), (0.1, 1e300)),
        ("cost_regimes_bps", (0.0, 18.0, 36.0, 60.0, math.inf), (0.0, 18.0, 36.0, 60.0, 1e300)),
        ("cost_regimes_bps", (0.0, 18.0, 36.0, 60.0, math.nan), (0.0, 18.0, 36.0, 60.0, -1e300)),
        # An integer past the float range has no float reading.
        pytest.param("aum", 10**400, 10**300, id="aum-int_past_float_range"),
        pytest.param("cost_regimes_bps", (0, 18, 36, 60, 10**400), (0, 18, 36, 60, 10**300),
                     id="cost_regimes_bps-int_past_float_range"),
    ])
    def test_non_finite_value_rejected(self, key, bad, edge):
        # A store.json writes a non-finite number as null, which no config
        # reads back; the config refuses it when built, naming the key.
        with pytest.raises(ValueError, match=f"^{key} must be .*finite"):
            _config(**{key: bad})
        _config(**{key: edge})

    @pytest.mark.parametrize("overrides, message", [
        ({"buckets": dict(bucket_size=0)}, "buckets.bucket_size must be >= 1, got 0"),
        ({"buckets": dict(bucket_size=-1)}, "buckets.bucket_size must be >= 1, got -1"),
        ({"buckets": dict(n_buckets=0)}, "buckets.n_buckets must be >= 1, got 0"),
        ({"buckets": dict(n_candidates=0)}, "buckets.n_candidates must be >= 1, got 0"),
        ({"buckets": dict(n_buckets=3, bucket_size=6),
          "synth": SynthSpec(n_assets=12, n_days=140, seed=3)},
         "buckets.bucket_size must be <= synthetic.n_assets // buckets.n_buckets, got 6"),
        ({"synth": None, "prices_csv": "prices.csv"},
         "sectors_csv must be set for a prices_csv while buckets.sector_constraint is on, got None"),
    ])
    def test_partition_that_cannot_run_rejected(self, overrides, message):
        # Refused when the config is built, before gen-data writes a panel
        # that the buckets and run stages would then refuse. A bucket record
        # refuses its own counts, so it is built here, not at collection.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _config(**{k: BucketConfig(**v) if k == "buckets" else v for k, v in overrides.items()})

    @pytest.mark.parametrize("overrides", [
        {"buckets": BucketConfig(n_buckets=3, bucket_size=6, n_candidates=1)},
        {"prices_csv": "prices.csv", "sectors_csv": "sectors.csv",
         "buckets": BucketConfig(n_buckets=3, bucket_size=7)},
        {"synth": None, "prices_csv": "prices.csv", "sectors_csv": "sectors.csv"},
        {"synth": None, "prices_csv": "prices.csv",
         "buckets": BucketConfig(sector_constraint=False)},
    ])
    def test_partition_that_may_run_accepted(self, overrides):
        # Every slot of the 18-asset panel filled; the synthetic spec not the
        # panel when a prices CSV is given; a CSV's labels come with it or are
        # not needed.
        _config(**overrides)

    @pytest.mark.parametrize("synth, constraint, refused", [
        (SynthSpec(n_assets=12, n_days=140, seed=3, n_sectors=2), True, True),
        (SynthSpec(n_assets=12, n_days=140, seed=3, n_sectors=3), True, False),
        (SynthSpec(n_assets=12, n_days=140, seed=3, n_sectors=2), False, False),
        (SynthSpec(n_assets=12, n_days=140, seed=3, sectors=("A", "B", "C") * 4), True, False),
        (SynthSpec(n_assets=12, n_days=140, seed=3, n_sectors=9, sectors=("A", "B") * 6), True, True),
    ])
    def test_bucket_above_the_sector_count_rejected(self, synth, constraint, refused):
        # With the sector constraint on, no bucket can hold more assets than
        # the synthetic panel has sectors (its labels, when given, else
        # n_sectors of them); buckets of 3 from 12 assets fit the slot count.
        buckets = BucketConfig(n_buckets=2, bucket_size=3, n_candidates=20, sector_constraint=constraint)
        if not refused:
            _config(synth=synth, buckets=buckets)
            return
        message = ("buckets.bucket_size must be <= the synthetic panel's sector count "
                   "while buckets.sector_constraint is on, got 3")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _config(synth=synth, buckets=buckets)

    @pytest.mark.parametrize("key", ["seed", "permutation_draws", "bootstrap_draws", "warmup"])
    @pytest.mark.parametrize("value", [7.0, 7.9, True, "7"])
    def test_count_that_is_not_an_int_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an int, got {re.escape(repr(value))}$"):
            _config(**{key: value})

    @pytest.mark.parametrize("key", ["n_buckets", "bucket_size", "n_candidates", "seed"])
    @pytest.mark.parametrize("value", [3.0, 20.5, False, "3"])
    def test_bucket_count_that_is_not_an_int_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^buckets.{key} must be an int, got {re.escape(repr(value))}$"):
            BucketConfig(**{key: value})

    @pytest.mark.parametrize("edit, message", [
        ({"buckets": {"sector_constraint": "false"}}, "buckets.sector_constraint must be a bool, got 'false'"),
        ({"buckets": {"sector_constraint": 0}}, "buckets.sector_constraint must be a bool, got 0"),
        ({"cost_regimes_bps": ["0", "1_8", "36", "60"]}, "cost_regimes_bps must be a list of numbers, got entry '0'"),
        ({"tost_margins_pp": [0.1, True]}, "tost_margins_pp must be a list of numbers, got entry True"),
        ({"tost_margins_pp": 0.1}, "tost_margins_pp must be a list of numbers, got 0.1"),
        ({"aum": True}, "aum must be a number, got True"),
        ({"fdr_q": True}, "fdr_q must be a number, got True"),
        ({"initial_capital": "1e6"}, "initial_capital must be a number, got '1e6'"),
        ({"cost_overrides_bps": {"bm04": "36"}}, "cost_overrides_bps must be a map to numbers, got entry '36'"),
        ({"cost_overrides_bps": [["bm04", 36]]}, "cost_overrides_bps must be a map to numbers, got [['bm04', 36]]"),
        # Each synthetic case keeps the id it had before synthetic keys were named by path.
        pytest.param({"synthetic": {**DEMO_CONFIG["synthetic"], "correlation": "0.3"}},
                     "synthetic.correlation must be a number, got '0.3'",
                     id="edit10-correlation must be a number, got '0.3'"),
        ({"engines": ["reference", 5]}, "engines must be a list of strings, got entry 5"),
        ({"engines": "reference,pre_trade"}, "engines must be a list of strings, got 'reference,pre_trade'"),
        ({"benchmarks": "bm01"}, "benchmarks must be a list of strings, got 'bm01'"),
        ({"daf_reference": ["bm01"]}, "daf_reference must be a string, got ['bm01']"),
        ({"prices_csv": 5}, "prices_csv must be a string, got 5"),
        pytest.param({"synthetic": {**DEMO_CONFIG["synthetic"], "annual_vol": "0.25"}},
                     "synthetic.annual_vol must be a number or a list of numbers, got '0.25'",
                     id="edit16-annual_vol must be a number or a list of numbers, got '0.25'"),
        pytest.param({"synthetic": {**DEMO_CONFIG["synthetic"], "annual_drift": True}},
                     "synthetic.annual_drift must be a number or a map to numbers, got True",
                     id="edit17-annual_drift must be a number or a map to numbers, got True"),
        pytest.param({"synthetic": {**DEMO_CONFIG["synthetic"], "annual_drift": [0.06]}},
                     "synthetic.annual_drift must be a number or a map to numbers, got [0.06]",
                     id="edit18-annual_drift must be a number or a map to numbers, got [0.06]"),
        pytest.param({"synthetic": {**DEMO_CONFIG["synthetic"], "sectors": "ABCDEF"}},
                     "synthetic.sectors must be a list of strings, got 'ABCDEF'",
                     id="edit19-sectors must be a list of strings, got 'ABCDEF'"),
        ({"buckets": None}, "buckets must be a map, got None"),
        ({"synthetic": "abc"}, "synthetic must be a map, got 'abc'"),
    ])
    def test_config_value_of_another_json_type_refused(self, edit, message):
        # Each once built a config that misread the value (a truthy "false",
        # float("1_8") == 18.0, a string read character by character) or
        # failed with a TypeError or AttributeError naming no key.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig.from_dict({**DEMO_CONFIG, **edit})

    def test_integer_spellings_of_listed_numbers_keep_the_run_id(self):
        # Numbers are stored as floats, so 18 and 18.0 build one run id.
        synth = DEMO_CONFIG["synthetic"]
        for ints, floats in [
            ({"cost_regimes_bps": [0, 18, 36, 60]}, {"cost_regimes_bps": [0.0, 18.0, 36.0, 60.0]}),
            ({"tost_margins_pp": [1, 2]}, {"tost_margins_pp": [1.0, 2.0]}),
            ({"initial_capital": 1000000}, {"initial_capital": 1000000.0}),
            ({"aum": 1000000000}, {"aum": 1e9}),
            ({"cost_overrides_bps": {"bm04": 36}}, {"cost_overrides_bps": {"bm04": 36.0}}),
            ({"synthetic": {**synth, "start_price": 100}}, {"synthetic": {**synth, "start_price": 100.0}}),
            ({"synthetic": {**synth, "annual_vol": 1}}, {"synthetic": {**synth, "annual_vol": 1.0}}),
            ({"synthetic": {**synth, "annual_vol": [1] * 36}}, {"synthetic": {**synth, "annual_vol": [1.0] * 36}}),
            ({"synthetic": {**synth, "annual_drift": {f"SEC{i}": i for i in range(6)}}},
             {"synthetic": {**synth, "annual_drift": {f"SEC{i}": float(i) for i in range(6)}}}),
        ]:
            as_ints, as_floats = (RunConfig.from_dict({**DEMO_CONFIG, **edit}) for edit in (ints, floats))
            assert as_ints == as_floats, ints
            assert as_ints.run_id() == as_floats.run_id(), ints

    @settings(max_examples=100, deadline=None)
    @given(_config_files())
    def test_config_round_trips_through_its_json(self, obj):
        # What to_json (and so store.json) writes is read back as the same
        # config under the same run id, whatever spelling built it.
        cfg = RunConfig.from_dict(obj)
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg
        assert again.run_id() == cfg.run_id()
        assert again.to_json() == cfg.to_json()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_CONFIG_FIELDS), _JSON_VALUES)
    def test_any_key_of_another_json_type_refused(self, key, value):
        path, f = key
        admitted = {t for part in f.type.split(" | ") for t in _JSON_TYPES[part]}
        if path == ("synthetic",) and f.name == "seed":
            admitted.add(type(None))  # a null synthetic seed takes the run's seed
        assume(type(value) not in admitted)
        obj = copy.deepcopy(DEMO_CONFIG)
        name = RunConfig._KEYS.get(f.name, f.name)
        (obj[path[0]] if path else obj)[name] = value
        named = ".".join((*path, name))
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must be "):
            RunConfig.from_dict(obj)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_NUMBER_FIELDS), st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -10**400]),
           st.data())
    def test_non_finite_number_at_any_key_refused(self, key, bad, data):
        # Every number a config holds is stored as a finite float: NaN, an
        # infinity or an integer past the float range is refused, as a value,
        # a list entry or a map value, naming the key by its path. A config
        # file spells the first three NaN, Infinity and -Infinity.
        path, f = key
        part = data.draw(st.sampled_from([p for p in f.type.split(" | ") if "float" in p]))
        if part == "float":
            value = bad
        else:
            values = [1.0] * data.draw(st.integers(0, 3))
            values.insert(data.draw(st.integers(0, len(values))), bad)
            value = values if part.startswith("tuple") else {f"k{i}": x for i, x in enumerate(values)}
        obj = copy.deepcopy(DEMO_CONFIG)
        (obj[path[0]] if path else obj)[f.name] = value
        named = ".".join((*path, f.name))
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must be finite, got {re.escape(repr(bad))}$"):
            RunConfig.from_dict(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("key", ["n_assets", "n_days"])
    def test_synthetic_map_without_a_count_refused(self, key):
        # Once a TypeError from the SynthSpec constructor, naming no config key.
        obj = copy.deepcopy(DEMO_CONFIG)
        del obj["synthetic"][key]
        with pytest.raises(ValueError, match=re.escape(f"missing config keys: ['synthetic.{key}']")):
            RunConfig.from_dict(obj)

    @pytest.mark.parametrize("edit, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"synthetic": {**DEMO_CONFIG["synthetic"], "seed": -1}}, "synthetic.seed must be >= 0, got -1"),
        ({"buckets": {"seed": -1}}, "buckets.seed must be >= 0, got -1"),
    ])
    def test_negative_seed_refused(self, edit, message):
        # A negative seed once built a run id, then failed in numpy's
        # default_rng; a negative bucket seed drew the partition of seed + 2**64.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig.from_dict({**DEMO_CONFIG, **edit})
        zero = {k: ({**v, "seed": 0} if isinstance(v, dict) else 0) for k, v in edit.items()}
        RunConfig.from_dict({**DEMO_CONFIG, **zero})

    @pytest.mark.parametrize("edit, message", [
        ({"seed": 7 + 2**64}, f"seed must be < 2**64, got {7 + 2**64}"),
        ({"buckets": {"seed": 7 + 2**64}}, f"buckets.seed must be < 2**64, got {7 + 2**64}"),
    ])
    def test_seed_past_64_bits_refused(self, edit, message):
        # The partition sampler keys its generator with the seed's low 64 bits,
        # so seed 7 + 2**64 drew seed 7's partition under a run id of its own.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig.from_dict({**DEMO_CONFIG, **edit})
        largest = {k: ({**v, "seed": 2**64 - 1} if isinstance(v, dict) else 2**64 - 1) for k, v in edit.items()}
        RunConfig.from_dict({**DEMO_CONFIG, **largest})

    def test_absent_or_null_synthetic_seed_takes_the_run_seed(self):
        for synth in ({**DEMO_CONFIG["synthetic"]}, {**DEMO_CONFIG["synthetic"], "seed": None}):
            cfg = RunConfig.from_dict({**DEMO_CONFIG, "seed": 11, "synthetic": synth})
            assert cfg.synth.seed == 11
            assert cfg == RunConfig.from_dict({**DEMO_CONFIG, "seed": 11, "synthetic": {**synth, "seed": 11}})

    @pytest.mark.parametrize("seed", [7.9, 7.0, True])
    def test_config_file_seed_is_not_rounded(self, seed):
        # 7.9 once built run 7 under its run id; true built seed 1.
        obj = {**DEMO_CONFIG, "seed": seed}
        with pytest.raises(ValueError, match=f"^seed must be an int, got {seed!r}$"):
            RunConfig.from_dict(obj)
        RunConfig.from_dict({**obj, "seed": 7})

    def test_empty_benchmark_list_rejected(self):
        with pytest.raises(ValueError, match=r"^benchmarks must be non-empty, got \(\)$"):
            _config(benchmarks=())

    @pytest.mark.parametrize("overrides, warmup", [
        ({"warmup": 139}, 139),
        ({"warmup": 138}, None),
        ({"benchmarks": ("bm07",), "synth": SynthSpec(n_assets=18, n_days=253, seed=3)}, 252),
        ({"benchmarks": ("bm07",), "synth": SynthSpec(n_assets=18, n_days=254, seed=3)}, None),
    ])
    def test_warmup_leaving_under_two_days_rejected(self, overrides, warmup):
        # The 140-day panel evaluates 2 days after a 138-day warm-up; bm07's
        # own warm-up of 252 applies when none is set.
        if warmup is None:
            _config(**overrides)
            return
        with pytest.raises(ValueError, match=f"^warm-up {warmup} leaves under 2 evaluation days of "):
            _config(**overrides)

    def test_warmup_of_a_prices_csv_checked_when_run(self, tmp_path):
        # A synthetic panel's day count is known when the config is built; a
        # CSV's only once the run reads it.
        synth = SynthSpec(n_assets=18, n_days=20, seed=3)
        args = dict(warmup=19, buckets=BucketConfig(n_buckets=3, bucket_size=6, sector_constraint=False))
        message = "^warm-up 19 leaves under 2 evaluation days of 20$"
        with pytest.raises(ValueError, match=message):
            _config(synth=synth, **args)
        write_prices_csv(generate_synthetic(synth), tmp_path / "p.csv")
        cfg = _config(synth=None, prices_csv=str(tmp_path / "p.csv"), **args)
        with pytest.raises(ValueError, match=message):
            run_suite(cfg)

    def test_json_roundtrip_and_run_id(self):
        cfg = _config()
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.canonical_dict())))
        assert again.canonical_dict() == cfg.canonical_dict()
        assert again.run_id() == cfg.run_id()
        assert _config(seed=4).run_id() != cfg.run_id()
        # Every field away from its default survives the round trip, and the
        # canonical JSON (hence the run id and store.json) keeps its bytes.
        cfg = RunConfig(
            seed=11,
            synth=SynthSpec(
                n_assets=4, n_days=90, seed=5, annual_drift={"S0": 0.02, "S1": 0.04},
                annual_vol=(0.1, 0.2, 0.3, 0.4), correlation=0.2, n_sectors=2,
                sectors=("S0", "S1", "S0", "S1"), start_price=50.0,
            ),
            prices_csv="prices.csv",
            sectors_csv="sectors.csv",
            buckets=BucketConfig(n_buckets=2, bucket_size=2, n_candidates=30, sector_constraint=False, seed=9),
            benchmarks=("bm09", "bm02"),
            engines=("pre_trade", "percent_divided", "reference"),
            cost_regimes_bps=(0.0, 18.0, 25.0),
            cost_overrides_bps={"bm02": 25.0},
            initial_capital=5e5,
            warmup=20,
            aum=2e9,
            permutation_draws=300,
            bootstrap_draws=200,
            daf_reference="bm02",
            tost_margins_pp=(0.25,),
            fdr_q=0.1,
        )
        for f in fields(RunConfig):
            default = f.default if f.default is not MISSING else f.default_factory()
            assert getattr(cfg, f.name) != default, f.name
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        for f in fields(RunConfig):
            assert getattr(again, f.name) == getattr(cfg, f.name), f.name
        assert again.roster() == cfg.roster()
        assert again.to_json() == cfg.to_json()
        assert cfg.run_id() == again.run_id() == "2c19f1e8d4cf"

    def test_duplicate_benchmarks_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            _config(benchmarks=("bm01", "bm09", "bm01"))

    def test_analyze_resolves_no_convention(self, demo_store, monkeypatch):
        # The roster is resolved when the config is built; reading engine ids
        # and conventions afterwards must not parse convention strings again.
        calls = []
        real = harness.resolve_convention
        monkeypatch.setattr(harness, "resolve_convention", lambda name: calls.append(name) or real(name))
        analyze(demo_store)
        assert calls == []

    def test_run_suite_parses_no_convention(self, monkeypatch):
        # Each run carries its convention, so deriving a cell from its row
        # reads it instead of parsing the convention string again.
        engines = ("reference", "pre_trade", "fifo_sequential", "post|abs|x2|atomic|aligned|trunc60")
        cfg = _config(engines=engines)
        calls = []
        real = EngineConvention.parse.__func__
        monkeypatch.setattr(
            EngineConvention, "parse", classmethod(lambda cls, text: calls.append(text) or real(cls, text))
        )
        store = run_suite(cfg)
        assert calls == []
        assert not any(cell.error for cell in store.cells.values())

    def test_unknown_config_keys_rejected(self):
        obj = _config().canonical_dict()
        obj["permutation_drawss"] = 17
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict(obj)
        # A nested record is read like the top level, its keys named by path.
        for edit, keys in [
            ({"buckets": {"n_bucket": 5}}, "['buckets.n_bucket']"),
            ({"synthetic": {**DEMO_CONFIG["synthetic"], "vol": 0.2, "drift": 0.1}},
             "['synthetic.drift', 'synthetic.vol']"),
        ]:
            with pytest.raises(ValueError, match=f"^unknown config keys: {re.escape(keys)}$"):
                RunConfig.from_dict({**DEMO_CONFIG, **edit})

    def test_roster_without_reference_engine(self):
        # Turnover and divergence still compute when the reference convention
        # is absent from the roster.
        cfg = _config(engines=("pre_trade", "percent_divided"), benchmarks=("bm01",))
        bundle = analyze(run_suite(cfg))
        rows = bundle.tables["cost_intensity"]
        assert rows and rows[0]["turnover_per_yr"] > 0


class TestRunSuite:
    def test_grid_size(self):
        cfg = _config(benchmarks=("bm01",), buckets=BucketConfig(1, 6, 5))
        store = run_suite(cfg)
        assert len(store.cells) == 1 * 1 * 2

    def test_full_grid_complete(self, demo_store):
        assert len(demo_store.cells) == 3 * 3 * 2
        assert all(c.ok for c in demo_store.cells.values())

    def test_universe_is_the_panel_record(self, demo_store):
        assert demo_store.universe == descriptive_stats(harness.load_panel(demo_store.config))

    def test_rerun_identical(self, demo_store):
        again = run_suite(_config())
        assert set(again.cells) == set(demo_store.cells)
        for key, cell in again.cells.items():
            assert np.array_equal(cell.equity, demo_store.cells[key].equity)

    def test_parallel_matches_serial(self):
        cfg = _config()
        serial = run_suite(cfg, jobs=1)
        parallel = run_suite(cfg, jobs=2)
        for key in serial.cells:
            assert np.array_equal(serial.cells[key].equity, parallel.cells[key].equity)

    def test_grid_arithmetic_at_thirty_buckets(self):
        # benchmarks x buckets x engines cells, complete, on a 180-asset
        # universe partitioned into 30 buckets of 6.
        cfg = _config(
            synth=SynthSpec(n_assets=180, n_days=120, seed=6, annual_vol=0.25,
                            annual_drift=0.05, n_sectors=11),
            buckets=BucketConfig(n_buckets=30, bucket_size=6, n_candidates=10),
            benchmarks=("bm01", "bm09"),
            engines=(
                "reference", "pre_trade", "percent_divided",
                "double_commission", "fifo_sequential", "shifted_one_day",
            ),
        )
        store = run_suite(cfg)
        assert len(store.cells) == 2 * 30 * 6
        assert all(c.ok for c in store.cells.values())
        assert len(store.bucket_ids) == 30

    def test_csv_panel_without_sectors(self, tmp_path):
        from crossbt.marketdata import generate_synthetic, load_prices_csv, write_prices_csv

        pm = generate_synthetic(SynthSpec(n_assets=12, n_days=120, seed=4, annual_vol=0.2))
        path = tmp_path / "p.csv"
        write_prices_csv(pm, str(path))
        cfg = RunConfig(
            seed=1,
            prices_csv=str(path),
            buckets=BucketConfig(n_buckets=2, bucket_size=6, n_candidates=10,
                                 sector_constraint=False),
            benchmarks=("bm01", "bm09"),
            engines=("reference", "pre_trade"),
            permutation_draws=50,
            bootstrap_draws=20,
        )
        store = run_suite(cfg)
        assert len(store.cells) == 2 * 2 * 2
        assert store.balance is None
        bundle = analyze(store)
        assert bundle.bucket_qc["balance"] is None
        # Requesting the constraint without sector labels is an error, not a
        # silent degrade: the config refuses it, and so does the partition
        # stage given a panel without labels.
        with pytest.raises(ValueError, match="sector"):
            RunConfig(
                seed=1,
                prices_csv=str(path),
                buckets=BucketConfig(n_buckets=2, bucket_size=6, n_candidates=10),
                benchmarks=("bm01",),
                engines=("reference", "pre_trade"),
            )
        unlabelled = load_prices_csv(str(path))
        with pytest.raises(ValueError, match="sector"):
            rerandomize(compute_covariates(unlabelled), **partition_args(_config(), unlabelled))

    def test_store_roundtrip(self, tmp_path, demo_store):
        demo_store.save(str(tmp_path / "store"))
        loaded = ResultStore.load(str(tmp_path / "store"))
        assert set(loaded.cells) == set(demo_store.cells)
        for key, cell in loaded.cells.items():
            orig = demo_store.cells[key]
            assert cell.stats.total_return_pct == orig.stats.total_return_pct
            assert cell.stats.growth == orig.stats.growth
            assert cell.turnover == orig.turnover
            assert np.array_equal(cell.equity, orig.equity)
        assert loaded.run_id == demo_store.run_id
        assert loaded.eval_dates == demo_store.eval_dates


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _cells_equal(a: CellResult, b: CellResult) -> bool:
    same_equity = (a.equity is None and b.equity is None) or (
        a.equity is not None and b.equity is not None and _bits(a.equity) == _bits(b.equity)
    )
    return (a.error, a.n_days, a.stats, a.turnover) == (b.error, b.n_days, b.stats, b.turnover) and same_equity


class TestGridTask:
    """``_run_grid_task`` runs the roster's rows over all buckets of a
    benchmark in one ``run_buckets`` call, which simulates each distinct
    holdings path once, and makes each cell one ``run_variant`` call with
    its row as the base; every cell must still be the cell of its own run."""

    @staticmethod
    def _cell_bits(c: CellResult) -> tuple:
        return (c.engine, c.error, c.n_days, _bits(c.equity), _bits(astuple(c.stats)), _bits([c.turnover]))

    ROSTER = ("reference", "pre_trade", "percent_divided", "fifo_sequential", "sells_first",
              "shifted_one_day", "post|abs|x1|atomic|aligned|trunc60")

    MEMBERS = (("A000", "A003", "A007", "A011", "A015"), ("A001", "A002", "A009", "A012", "A016"),
               ("A004", "A005", "A006", "A013", "A017"))

    @pytest.fixture
    def counted(self, monkeypatch):
        """Record each pass's buckets and rows and each ``run_variant`` call's convention."""
        calls = {"batch": [], "variant": []}

        def batch(*args, **kwargs):
            calls["batch"].append((len(args[0]), [conv for conv, _ in args[3]]))
            return run_buckets(*args, **kwargs)

        def variant(*args, **kwargs):
            calls["variant"].append(args[4])
            return run_variant(*args, **kwargs)

        monkeypatch.setattr(harness, "run_buckets", batch)
        monkeypatch.setattr(harness, "run_variant", variant)
        return calls

    def _buckets(self, cfg: RunConfig) -> tuple:
        pm = harness.load_panel(cfg)
        return tuple((f"b{i}", pm.subset(members)) for i, members in enumerate(self.MEMBERS))

    def _alone(self, bm: str, bucket: str, bucket_pm, engine: str, conv, rate: float, start: int) -> CellResult:
        """The cell of one ``run_variant`` of its own."""
        schedule = BENCHMARKS[bm].build(bucket_pm, start)
        series = run_variant(schedule, bucket_pm, 1e6, CostSpec(rate), conv, start)
        return CellResult(
            bm, bucket, engine, stats=performance_metrics(series),
            turnover=annual_turnover(series), n_days=len(series.equity), equity=series.equity,
        )

    def test_cells_equal_simulated_runs_with_one_call_per_convention(self, counted):
        cfg = _config(benchmarks=("bm01", "bm09", "bm12"), engines=self.ROSTER)
        roster = cfg.roster()
        buckets = self._buckets(cfg)
        for bm in cfg.benchmarks:
            rate = cfg.benchmark_cost_bps(bm) / 1e4
            counted["batch"].clear()
            counted["variant"].clear()
            results = harness._run_grid_task((bm, buckets, 0, rate, roster, 1e6))
            # One call over every bucket with the roster's rows, then one
            # call per cell.
            [(n_buckets, rows)] = counted["batch"]
            assert n_buckets == len(buckets)
            assert rows == [conv for _, conv in roster]
            assert counted["variant"] == [conv for _, conv in roster] * len(buckets)
            assert [(b, bucket) for b, bucket, _, _ in results] == [(bm, bucket) for bucket, _ in buckets]
            for (bucket, bucket_pm), (_, _, first_w, cells) in zip(buckets, results):
                schedule = BENCHMARKS[bm].build(bucket_pm, 0)
                assert first_w == schedule.first_entry_weight_sum(bucket_pm)
                for cell, (engine, conv) in zip(cells, roster):
                    alone = self._alone(bm, bucket, bucket_pm, engine, conv, rate, 0)
                    assert self._cell_bits(cell) == self._cell_bits(alone)

    def test_each_schedule_meets_its_calendar_once(self, counted, monkeypatch):
        # validate resolves a schedule's dates against its bucket's calendar;
        # the per-cell run_variant derives from its row and reads neither.
        validate = WeightSchedule.validate
        resolved = []

        def spy(schedule, *args, **kwargs):
            resolved.append(schedule)
            return validate(schedule, *args, **kwargs)

        monkeypatch.setattr(WeightSchedule, "validate", spy)
        cfg = _config(benchmarks=("bm01", "bm09", "bm12"), engines=self.ROSTER)
        roster = cfg.roster()
        buckets = self._buckets(cfg)
        bad = buckets[1][1]
        spec = BENCHMARKS["bm09"]

        def faulty(pm, start):
            if pm is bad:
                raise RuntimeError("no signal")
            return spec.build(pm, start)

        monkeypatch.setitem(harness.BENCHMARKS, "bm09", replace(spec, build=faulty))
        for bm in cfg.benchmarks:
            resolved.clear()
            counted["variant"].clear()
            results = harness._run_grid_task((bm, buckets, 0, cfg.benchmark_cost_bps(bm) / 1e4, roster, 1e6))
            # bm09's schedule for the bad bucket raises, so it never reaches validate.
            built = 2 if bm == "bm09" else 3
            assert sum(cells[0].ok for _, _, _, cells in results) == built
            assert len(resolved) == len({id(s) for s in resolved}) == built
            assert len(counted["variant"]) == len(roster) * built
        monkeypatch.setitem(harness.BENCHMARKS, "bm09", spec)
        resolved.clear()
        store = run_suite(cfg)
        assert len(resolved) == len(cfg.benchmarks) * len(store.bucket_ids)

    def test_a_schedule_that_fails_the_checks_fails_every_cell_alike(self, counted, monkeypatch):
        cfg = _config(benchmarks=("bm01",), engines=self.ROSTER)
        roster = cfg.roster()
        bucket_pm = harness.load_panel(cfg).subset(["A000", "A003", "A007"])
        early = WeightSchedule({bucket_pm.dates[5]: np.full(3, 0.3), bucket_pm.dates[30]: np.full(3, 0.3)})
        monkeypatch.setitem(
            harness.BENCHMARKS, "bm01", replace(BENCHMARKS["bm01"], build=lambda pm, start: early)
        )
        [(_, _, first_w, cells)] = harness._run_grid_task(
            ("bm01", (("b", bucket_pm),), 20, 0.0018, roster, 1e6)
        )
        assert first_w == pytest.approx(0.9)
        assert [cell.engine for cell in cells] == [engine for engine, _ in roster]
        for cell, (_, conv) in zip(cells, roster):
            # The message each cell got when it ran its own checks.
            with pytest.raises(ValueError) as raised:
                run_variant(early, bucket_pm, 1e6, CostSpec(0.0018), conv, 20)
            assert cell.error == f"ValueError: {raised.value}"
            assert "precedes evaluation start" in cell.error and cell.stats is None

    def test_a_date_off_the_calendar_fails_every_cell_as_validate_words_it(self, counted, monkeypatch):
        cfg = _config(benchmarks=("bm01",), engines=self.ROSTER)
        roster = cfg.roster()
        bucket_pm = harness.load_panel(cfg).subset(["A000", "A003", "A007"])
        off = WeightSchedule({bucket_pm.dates[30]: np.full(3, 0.3), "99999": np.full(3, 0.3)})
        monkeypatch.setitem(harness.BENCHMARKS, "bm01", replace(BENCHMARKS["bm01"], build=lambda pm, start: off))
        [(_, _, first_w, cells)] = harness._run_grid_task(("bm01", (("b", bucket_pm),), 20, 0.0018, roster, 1e6))
        assert first_w is None
        assert [cell.engine for cell in cells] == [engine for engine, _ in roster]
        message = "rebalance date '99999' not in price calendar"
        assert {cell.error for cell in cells} == {f"schedule: ValueError: {message}"}
        with pytest.raises(ValueError, match=message):
            off.validate(bucket_pm, 20)

    @pytest.mark.parametrize("fault", ["raises", "fails the checks"])
    def test_a_failing_bucket_leaves_the_other_buckets_alone(self, counted, monkeypatch, fault):
        cfg = _config(benchmarks=("bm09",), engines=self.ROSTER)
        roster = cfg.roster()
        buckets = self._buckets(cfg)
        bad = buckets[1][1]
        spec = BENCHMARKS["bm09"]
        build = spec.build

        def faulty(pm, start):
            if pm is not bad:
                return build(pm, start)
            if fault == "raises":
                raise RuntimeError("no signal")
            return WeightSchedule({pm.dates[0]: np.full(5, 0.1), pm.dates[40]: np.full(5, 0.3)})

        monkeypatch.setitem(harness.BENCHMARKS, "bm09", replace(spec, build=faulty))
        rate = cfg.benchmark_cost_bps("bm09") / 1e4
        results = {bucket: rest for _, bucket, *rest in
                   harness._run_grid_task(("bm09", buckets, 10, rate, roster, 1e6))}
        assert sorted(results) == ["b0", "b1", "b2"]
        # A schedule that raises never reaches the pass; one that fails the
        # checks is left out of the stepping by ``run_buckets`` itself.
        [(n_buckets, _)] = counted["batch"]
        assert n_buckets == (2 if fault == "raises" else 3)
        first_w, cells = results["b1"]
        if fault == "raises":
            assert first_w is None
            assert {cell.error for cell in cells} == {"schedule: RuntimeError: no signal"}
        else:
            assert first_w == pytest.approx(0.5)
            with pytest.raises(ValueError) as raised:
                run_variant(faulty(bad, 10), bad, 1e6, CostSpec(rate), REFERENCE, 10)
            assert {cell.error for cell in cells} == {f"ValueError: {raised.value}"}
        assert [cell.engine for cell in cells] == [engine for engine, _ in roster]
        monkeypatch.setitem(harness.BENCHMARKS, "bm09", spec)
        for bucket, bucket_pm in (buckets[0], buckets[2]):
            first_w, cells = results[bucket]
            assert first_w == build(bucket_pm, 10).first_entry_weight_sum(bucket_pm)
            for cell, (engine, conv) in zip(cells, roster):
                alone = self._alone("bm09", bucket, bucket_pm, engine, conv, rate, 10)
                assert self._cell_bits(cell) == self._cell_bits(alone)

    def test_a_cell_whose_metrics_fail_is_a_cell_error(self):
        # A one-day truncation reports one equity point, too few for
        # performance_metrics; that cell alone fails and analyze still runs.
        trunc1 = resolve_convention("post|abs|x1|atomic|aligned|trunc1").id
        store = run_suite(_config(engines=("reference", "pre_trade", trunc1)))
        for (_, _, engine), cell in store.cells.items():
            if engine == trunc1:
                assert cell.error == "ValueError: need at least 2 equity points"
            else:
                assert cell.ok
        findings = validate_results(store)
        assert {(f.kind, f.engine) for f in findings} == {("CellError", trunc1)}
        assert len(findings) == len(store.config.benchmarks) * len(store.bucket_ids)
        assert analyze(store).tables["validation"] == [vars(f) for f in findings]


#: Equity values that must survive the text round trip bit for bit.
_SPECIAL_EQUITY = np.array(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     -0.0, 0.0, np.inf, -np.inf, 1e6, 0.1]
)


def _equity_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Special values mixed with random floats spread over the whole exponent range."""
    spread = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n).astype(float)
    return np.where(rng.random(n) < 0.3, rng.choice(_SPECIAL_EQUITY, n), spread)


class TestStoreFiles:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(["ok", "error", "truncated"]), min_size=18, max_size=18), st.integers(0, 2**32))
    def test_save_load_roundtrip_is_bit_exact(self, tmp_path_factory, demo_store, kinds, seed):
        rng = np.random.default_rng(seed)
        store = copy.copy(demo_store)
        n_eval = store.n_eval_days
        cells = {}
        for kind, (key, cell) in zip(kinds, sorted(demo_store.cells.items())):
            if kind == "error":
                cells[key] = CellResult(*key, error="RuntimeError: boom, again", n_days=int(rng.integers(0, 3)))
                continue
            n = n_eval if kind == "ok" else int(rng.integers(1, n_eval + 1))
            cells[key] = CellResult(
                *key, stats=cell.stats, turnover=cell.turnover, n_days=n, equity=_equity_values(rng, n)
            )
        store.cells = cells
        directory = tmp_path_factory.mktemp("store")
        store.save(str(directory / "a"))
        loaded = ResultStore.load(str(directory / "a"))
        assert list(loaded.cells) == sorted(cells)
        assert all(_cells_equal(loaded.cells[k], cells[k]) for k in cells)
        loaded.save(str(directory / "b"))
        for name in ("store.json", "cells.csv", "equity.csv"):
            assert (directory / "a" / name).read_bytes() == (directory / "b" / name).read_bytes()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(["swap", "drop", "duplicate", "append", "redate", "rekey", "widen", "header", "value"]),
        st.integers(0, 10**6),
    )
    def test_damaged_equity_file_raises(self, tmp_path_factory, demo_store, damage, where):
        directory = tmp_path_factory.mktemp("store")
        demo_store.save(str(directory))
        path = directory / "equity.csv"
        lines = path.read_text().splitlines()
        i = 1 + where % (len(lines) - 1)
        j = 1 + (where // 7) % (len(lines) - 1)
        fields = lines[i].split(",")
        if damage == "swap":
            j = j if j != i else 1 + i % (len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif damage == "drop":
            del lines[i]
        elif damage == "duplicate":
            lines.insert(i, lines[i])
        elif damage == "append":
            lines.append(lines[i])
        elif damage == "redate":
            lines[i] = ",".join(fields[:3] + ["1900-01-01"] + fields[4:])
        elif damage == "rekey":
            lines[i] = ",".join(fields[:2] + ["no_such_engine"] + fields[3:])
        elif damage == "widen":
            lines[i] += ",1.0"
        elif damage == "header":
            lines[0] = lines[0].replace("equity", "value")
        else:
            lines[i] = ",".join(fields[:4] + ["not-a-number"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="equity.csv"):
            ResultStore.load(str(directory))

    def test_short_file_names_the_cell(self, tmp_path, demo_store):
        demo_store.save(str(tmp_path))
        path = tmp_path / "equity.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        last = "/".join(max(k for k, c in demo_store.cells.items() if c.ok))
        with pytest.raises(ValueError, match=last):
            ResultStore.load(str(tmp_path))

    @pytest.mark.parametrize("where", ["bucket", "date"])
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
    def test_save_rejects_a_line_break_in_a_field(self, tmp_path, demo_store, where, brk):
        buckets = [f"B{brk}{i}" if where == "bucket" else b for i, b in enumerate(demo_store.bucket_ids)]
        dates = [(3, f"2020{brk}")] if where == "date" else []
        store = _odd_store(demo_store, ["ok"] * 18, buckets, dates, 0)
        with pytest.raises(ValueError, match="equity.csv: field .* holds a line break"):
            store.save(str(tmp_path))

    def test_load_takes_only_the_quoting_save_writes(self, tmp_path, demo_store):
        """csv.reader would read a quoted field that needs no quotes; the
        line reader names the cell instead."""
        demo_store.save(str(tmp_path))
        path = tmp_path / "equity.csv"
        lines = path.read_bytes().split(b"\r\n")
        bm, bucket, engine = lines[1].decode().split(",")[:3]
        lines[1] = lines[1].replace(bm.encode(), f'"{bm}"'.encode(), 1)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=f"equity.csv: rows for cell {bm}/{bucket}/{engine} "):
            ResultStore.load(str(tmp_path))


#: Text for bucket ids and dates: CSV's delimiter and quote character, the
#: writer's format character and two of its directive letters, and ASCII
#: controls at which str.splitlines breaks a line but a text file does not.
_FIELD_TEXT = st.text(st.sampled_from(list('ab1- ,"\'%rs\t\x0b\x0c\x1c\x1d\x1e')), max_size=5)

_CELL_KINDS = st.lists(st.sampled_from(["ok", "error", "truncated", "zero"]), min_size=18, max_size=18)


def _odd_store(
    demo_store: ResultStore, kinds: list[str], buckets: list[str], dates: list[tuple[int, str]], seed: int
) -> ResultStore:
    """``demo_store`` with its buckets renamed to ``buckets``, the dates at
    the drawn positions replaced, and each cell made ok, an error, truncated
    or zero days long with random equity values."""
    rng = np.random.default_rng(seed)
    store = copy.copy(demo_store)
    rename = dict(zip(demo_store.bucket_ids, buckets))
    eval_dates = list(demo_store.eval_dates)
    for i, text in dates:
        eval_dates[i % len(eval_dates)] = text
    store.eval_dates = tuple(eval_dates)
    cells = {}
    for kind, ((bm, bucket, engine), cell) in zip(kinds, sorted(demo_store.cells.items())):
        key = (bm, rename[bucket], engine)
        if kind == "error":
            cells[key] = CellResult(*key, error="RuntimeError: boom, again")
            continue
        n = {"ok": len(eval_dates), "zero": 0}.get(kind, int(rng.integers(1, len(eval_dates) + 1)))
        cells[key] = CellResult(
            *key, stats=cell.stats, turnover=cell.turnover, n_days=n, equity=_equity_values(rng, n)
        )
    store.cells = cells
    return store


def _equity_bits(equity: dict) -> dict:
    return {key: None if e is None else _bits(e) for key, e in equity.items()}


def _oracle_equity(store: ResultStore, path) -> dict:
    lengths = {key: c.n_days for key, c in store.cells.items() if c.ok}
    return _equity_bits(load_equity_loop(path, lengths, store.eval_dates))


def _loaded_equity(directory) -> dict:
    return _equity_bits({key: c.equity for key, c in ResultStore.load(str(directory)).cells.items() if c.ok})


def _load_error(load) -> str | None:
    try:
        load()
    except ValueError as exc:
        return str(exc)
    return None


def _long_store(demo_store: ResultStore, n_cells: int, n_days: int) -> ResultStore:
    """``n_cells`` ok cells of ``n_days`` random equity values each."""
    rng = np.random.default_rng(0)
    store = copy.copy(demo_store)
    store.eval_dates = tuple(f"d{i:05d}" for i in range(n_days))
    cell = next(c for c in demo_store.cells.values() if c.ok)
    store.cells = {}
    for i in range(n_cells):
        key = (cell.benchmark, f"b{i:04d}", cell.engine)
        store.cells[key] = CellResult(
            *key, stats=cell.stats, turnover=cell.turnover, n_days=n_days, equity=rng.standard_normal(n_days)
        )
    return store


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStoreOracle:
    """``equity.csv`` against the one-row-at-a-time writer and reader in
    ``oracles``: the same bytes, the same cells bit for bit, the same errors."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        _CELL_KINDS,
        st.lists(_FIELD_TEXT, min_size=3, max_size=3, unique=True),
        st.lists(st.tuples(st.integers(0, 10**6), _FIELD_TEXT), max_size=4),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_save_and_load_match_the_loop_oracles(
        self, tmp_path_factory, demo_store, kinds, buckets, dates, lf_endings, seed
    ):
        store = _odd_store(demo_store, kinds, buckets, dates, seed)
        directory = tmp_path_factory.mktemp("store")
        store.save(str(directory / "store"))
        save_equity_loop(store, directory / "oracle.csv")
        path = directory / "store" / "equity.csv"
        assert path.read_bytes() == (directory / "oracle.csv").read_bytes()
        if lf_endings:
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        assert _loaded_equity(directory / "store") == _oracle_equity(store, path)

    def test_format_directives_in_ids_and_dates_are_written_as_text(self, tmp_path, demo_store):
        kinds = ["ok", "truncated", "error"] * 6
        dates = [(0, "%r"), (1, "%%"), (2, "%s"), (3, "100%"), (4, '"%r",%')]
        store = _odd_store(demo_store, kinds, ["%r", "%%", "a%s,"], dates, 3)
        store.save(str(tmp_path / "store"))
        save_equity_loop(store, tmp_path / "oracle.csv")
        path = tmp_path / "store" / "equity.csv"
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert _loaded_equity(tmp_path / "store") == _oracle_equity(store, path)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        _CELL_KINDS,
        st.lists(st.tuples(st.integers(0, 10**6), _FIELD_TEXT), max_size=2),
        st.sampled_from(
            ["swap", "drop", "duplicate", "append", "blank", "rehead", "value", "widen", "narrow", "header"]
        ),
        st.integers(0, 10**6),
        st.booleans(),
    )
    def test_damaged_file_fails_as_the_oracle_fails(
        self, tmp_path_factory, demo_store, kinds, dates, damage, where, lf_endings
    ):
        store = _odd_store(demo_store, kinds, list(demo_store.bucket_ids), dates, where)
        directory = tmp_path_factory.mktemp("store")
        store.save(str(directory))
        path = directory / "equity.csv"
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        i = where % len(lines)
        j = (where // 7) % len(lines)
        if damage == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif damage == "drop":
            del lines[i]
        elif damage == "duplicate":
            lines.insert(i, lines[i])
        elif damage == "append":
            lines.append(lines[i])
        elif damage == "blank":
            lines.insert(i, "")
        elif damage == "rehead":
            lines[i] = lines[j].rpartition(",")[0] + "," + lines[i].rpartition(",")[2]
        elif damage == "value":
            lines[i] = lines[i].rpartition(",")[0] + ",not-a-number"
        elif damage == "widen":
            lines[i] += ",1.0"
        elif damage == "narrow":
            lines[i] = lines[i].rpartition(",")[0]
        else:
            lines[0] = lines[0].replace("equity", "value")
        end = "\n" if lf_endings else "\r\n"
        path.write_bytes("".join(line + end for line in lines).encode())
        expected = _load_error(lambda: _oracle_equity(store, path))
        assert _load_error(lambda: ResultStore.load(str(directory))) == expected
        if expected is None:
            assert _loaded_equity(directory) == _oracle_equity(store, path)

    @pytest.mark.parametrize("stage", ["save", "load"])
    def test_store_streams_one_cell_at_a_time(self, tmp_path, demo_store, stage):
        """Four times the cells over the same days may add to the peak
        traced memory the extra equity arrays, not the extra file text
        (about 40 characters and one str object per value)."""
        n_cells, n_days = 10, 2000
        peaks = []
        for cells in (n_cells, 4 * n_cells):
            store = _long_store(demo_store, cells, n_days)
            directory = str(tmp_path / str(cells))
            if stage == "save":
                peaks.append(_peak_traced_bytes(lambda: store.save(directory)))
            else:
                store.save(directory)
                peaks.append(_peak_traced_bytes(lambda: ResultStore.load(directory)))
        extra_arrays = 3 * n_cells * n_days * 8
        assert peaks[1] - peaks[0] <= 1.5 * extra_arrays


#: Float64 equity values: NaN of either sign, infinities, signed zeros,
#: subnormals and ordinary values, besides whatever st.floats draws.
_EQUITY_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6]),
)


@pytest.fixture(scope="module")
def negative_store():
    """At 3000 bps a doubled commission takes the x2 cells' equity below zero."""
    return run_suite(RunConfig.from_dict({
        "seed": 1,
        "synthetic": {"n_assets": 12, "n_days": 120, "seed": None, "n_sectors": 6},
        "buckets": {"n_buckets": 2, "bucket_size": 6, "n_candidates": 20},
        "benchmarks": ["bm03"],
        "engines": ["reference", "post|abs|x2|atomic|aligned|full"],
        "cost_regimes_bps": [0, 18, 36, 60, 3000],
        "cost_overrides_bps": {"bm03": 3000},
        "permutation_draws": 50,
        "bootstrap_draws": 20,
    }))


def _set_min_equity(directory: Path, key: tuple[str, str, str], text: str) -> None:
    """Rewrite ``cells.csv`` with the ``min_equity`` field of ``key`` set to ``text``."""
    path = directory / "cells.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for row in rows:
        if tuple(row[:3]) == key:
            row[-1] = text
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


class TestMinEquity:
    """The ``min_equity`` column of ``cells.csv`` answers the one question
    ``analyze`` asked of ``equity.csv``: does any value fall to zero or below."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_EQUITY_FLOATS, min_size=1, max_size=60))
    def test_min_equity_marks_non_positive_equity(self, tmp_path_factory, demo_store, values):
        equity = np.array(values, dtype=float)
        key, cell = next((k, c) for k, c in sorted(demo_store.cells.items()) if c.ok)
        cell = replace(cell, n_days=len(equity), equity=equity)
        assert (cell.min_equity <= 0) == bool(np.any(equity <= 0))
        store = copy.copy(demo_store)
        store.cells = {key: cell}
        directory = tmp_path_factory.mktemp("store")
        store.save(str(directory))
        read = ResultStore.load_cells(str(directory)).cells[key]
        assert read.equity is None
        # The text has one spelling for every NaN, nan, as equity.csv does;
        # every other value keeps its bits.
        if math.isnan(cell.min_equity):
            assert math.isnan(read.min_equity)
        else:
            assert _bits([read.min_equity]) == _bits([cell.min_equity])
        # load derives the same bits from the series it reads back.
        assert _bits([ResultStore.load(str(directory)).cells[key].min_equity]) == _bits([read.min_equity])

    @pytest.mark.parametrize("which", ["demo_store", "wide_store", "negative_store"])
    def test_analyze_reads_the_same_from_either_loader(self, request, tmp_path, which):
        store = request.getfixturevalue(which)
        store.save(str(tmp_path))
        expected = analyze(store).to_json()
        assert ("NonPositiveEquity" in expected) == (which == "negative_store")
        assert analyze(ResultStore.load_cells(str(tmp_path))).to_json() == expected
        assert analyze(ResultStore.load(str(tmp_path))).to_json() == expected

    def test_store_without_the_column_refused(self, tmp_path, demo_store):
        demo_store.save(str(tmp_path))
        path = tmp_path / "cells.csv"
        with open(path, newline="") as f:
            rows = [row[:-1] for row in csv.reader(f)]
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        message = f"{path}: no min_equity column; rerun `crossbt run` to write the store again"
        for load in (ResultStore.load_cells, ResultStore.load):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load(str(tmp_path))

    @pytest.mark.parametrize("equity, text", [
        (None, "-1.0"),
        (None, ""),
        (None, "next"),
        ([1.0, 0.0, 2.0], "-0.0"),
        ([math.nan, math.nan], "-nan"),
    ])
    def test_load_refuses_a_value_its_series_does_not_give(self, tmp_path, demo_store, equity, text):
        key, cell = next((k, c) for k, c in sorted(demo_store.cells.items()) if c.ok)
        if equity is not None:
            cell = replace(cell, n_days=len(equity), equity=np.array(equity))
        if text == "next":
            text = repr(float(np.nextafter(cell.min_equity, math.inf)))
        store = copy.copy(demo_store)
        store.cells = dict(demo_store.cells) | {key: cell}
        store.save(str(tmp_path))
        _set_min_equity(tmp_path, key, text)
        with pytest.raises(ValueError, match=f"^cells.csv: cell {re.escape('/'.join(key))} has min_equity "):
            ResultStore.load(str(tmp_path))
        # load_cells takes the column as written, and the validation reads it.
        findings = validate_results(ResultStore.load_cells(str(tmp_path)))
        assert (harness.Finding("NonPositiveEquity", *key) in findings) == (text in ("-1.0", "-0.0"))


def _tables(rng: np.random.Generator, m: int, bms: list[str], distinct: int, missing: float):
    """Random per-(benchmark, bucket) turnover and spread tables with ties and gaps."""
    buckets = [f"b{i:02d}" for i in range(m)]
    tables = []
    for _ in range(2):
        pool = rng.uniform(0.0, 50.0, distinct)
        tables.append(
            {(bm, b): float(rng.choice(pool)) for bm in bms for b in buckets if rng.random() >= missing}
        )
    return buckets, tables[0], tables[1]


class TestResampledRho:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(0, 6),
        st.integers(1, 300),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.0, 0.1, 0.5, 0.9]),
        st.integers(0, 2**32),
    )
    def test_batched_statistic_matches_per_draw_oracle(self, m, n_bms, draws, distinct, missing, seed):
        rng = np.random.default_rng(seed)
        bms = [f"bm{i:02d}" for i in range(n_bms)]
        buckets, turnover, spread = _tables(rng, m, bms, distinct, missing)
        rates = {bm: float(rng.choice([0.0005, 0.001, 0.0018, 0.003])) for bm in bms}
        index = rng.integers(0, m, size=(draws, m))
        got = harness._resampled_rho(index, buckets, bms, rates, turnover, spread)
        expected = [
            resampled_rho_per_draw([buckets[j] for j in row], bms, rates, turnover, spread)
            for row in index
        ]
        assert _bits(got) == _bits(expected)

        boot = cluster_bootstrap(
            buckets,
            lambda idx: harness._resampled_rho(idx, buckets, bms, rates, turnover, spread),
            draws=draws,
            seed=seed,
        )
        point, ci = cluster_bootstrap_per_draw(
            buckets, lambda gb: resampled_rho_per_draw(gb, bms, rates, turnover, spread), draws, seed
        )
        assert _bits([boot.point, *boot.ci95]) == _bits([point, *ci])

    def test_analyze_interval_matches_per_draw_oracle(self, demo_store, monkeypatch):
        calls = []
        real = harness._resampled_rho

        def spy(index, *tables):
            calls.append(tables)
            return real(index, *tables)

        monkeypatch.setattr(harness, "_resampled_rho", spy)
        conjecture = analyze(demo_store).conjecture
        buckets, bms, rates, turnover, spread = calls[0]
        point, ci = cluster_bootstrap_per_draw(
            buckets,
            lambda gb: resampled_rho_per_draw(gb, bms, rates, turnover, spread),
            demo_store.config.bootstrap_draws,
            harness.derived_seed(demo_store.config.seed, "boot", "conjecture"),
        )
        assert len(calls) == 2
        assert _bits([conjecture["bootstrap_point"], *conjecture["bootstrap_ci95"]]) == _bits([point, *ci])


class TestValidate:
    def test_clean_store_no_findings(self, demo_store):
        assert validate_results(demo_store) == []

    def test_truncation_detected(self):
        cfg = _config(
            engines=("reference", "post|abs|x1|atomic|aligned|trunc62"),
            benchmarks=("bm01",),
        )
        store = run_suite(cfg)
        findings = validate_results(store)
        mismatches = [f for f in findings if f.kind == "LengthMismatch"]
        assert mismatches
        assert all(f.got == 62 for f in mismatches)
        assert all(f.expected == store.n_eval_days for f in mismatches)

    def test_missing_cell_detected(self, demo_store):
        import copy

        store = copy.copy(demo_store)
        store.cells = dict(demo_store.cells)
        key = next(iter(store.cells))
        del store.cells[key]
        findings = validate_results(store)
        assert any(f.kind == "MissingCell" for f in findings)

    def test_zero_equity_detected(self, demo_store):
        store = copy.copy(demo_store)
        store.cells = dict(demo_store.cells)
        key = next(iter(store.cells))
        equity = store.cells[key].equity.copy()
        equity[-1] = 0.0
        store.cells[key] = replace(store.cells[key], equity=equity)
        assert validate_results(store) == [harness.Finding("NonPositiveEquity", *key)]


class TestAnalyze:
    def test_identical_conventions_all_zero(self):
        # At zero cost the reporting convention has nothing to report, so the
        # two engines behave identically and every record degenerates to 0.
        cfg = _config(engines=("reference", "pre_trade"), benchmarks=("bm09",))
        bundle = analyze(run_suite(cfg))
        for row in bundle.tables["divergence_records"]:
            assert row["rel_diff_pct"] == 0.0
        tost_rows = [r for r in bundle.tables["stats_tests"] if r["test"] == "tost"]
        assert tost_rows
        assert all(r["equivalent"] for r in tost_rows)
        assert all(r["degenerate"] for r in tost_rows)

    def test_floor_reproduced_in_pipeline(self):
        cfg = _config(benchmarks=("bm02",))
        bundle = analyze(run_suite(cfg))
        target = 0.0018 / 0.9982 * 100
        recs = [
            r for r in bundle.tables["divergence_records"] if r["metric"] == "total_return"
        ]
        assert recs
        for row in recs:
            assert row["rel_diff_pct"] == pytest.approx(target, abs=1e-6)
        floor_rows = bundle.tables["floor_decomposition"]
        assert all(r["mixed_reporting"] for r in floor_rows)
        for row in floor_rows:
            assert row["floor_pct"] == pytest.approx(target, abs=1e-6)
            assert abs(row["residual_pct"]) < 1e-6

    def test_bh_family_size_is_benchmarks_times_pairs(self):
        cfg = _config(
            engines=("reference", "pre_trade", "percent_divided", "double_commission"),
            benchmarks=("bm01", "bm02"),
        )
        bundle = analyze(run_suite(cfg))
        t_rows = [r for r in bundle.tables["stats_tests"] if r["test"] == "t"]
        assert len(t_rows) == 2 * 6  # benchmarks x C(4,2) pairs
        assert all(r["reject_fdr"] is not None for r in t_rows if not r["degenerate"])

    def test_failed_cells_excluded_pairwise(self, demo_store):
        import copy
        from dataclasses import replace

        store = copy.copy(demo_store)
        store.cells = dict(demo_store.cells)
        victim = ("bm01", store.bucket_ids[0], store.engine_ids[0])
        store.cells[victim] = replace(
            store.cells[victim], error="boom", stats=None, equity=None
        )
        bundle = analyze(store)
        # The broken engine's pairs lose that bucket; other cells keep it.
        recs = [
            r for r in bundle.tables["divergence_records"]
            if r["benchmark"] == "bm01" and r["metric"] == "total_return"
        ]
        buckets_in_records = {r["bucket"] for r in recs}
        assert store.bucket_ids[0] not in buckets_in_records
        summary = {r["benchmark"]: r for r in bundle.tables["divergence_summary"]}
        assert summary["bm01"]["n_buckets"] == len(store.bucket_ids) - 1
        assert any(
            f["kind"] == "CellError" and f["benchmark"] == "bm01"
            for f in bundle.tables["validation"]
        )

    def test_summary_metrics_present(self, demo_bundle):
        rows = {r["benchmark"]: r for r in demo_bundle.tables["divergence_summary"]}
        assert set(rows) == {"bm01", "bm02", "bm09"}
        assert rows["bm01"]["daf"] == 1.0 or rows["bm01"]["daf"] is None
        assert rows["bm09"]["mean_pct"] == 0.0
        for row in rows.values():
            assert row["n_pairs"] == 1
            assert row["csi"] in (0, 1)

    def test_summary_row_matches_hand_recomputation(self, demo_store, demo_bundle):
        # Rebuild bm01's summary from raw equity series with flat code:
        # growth-relative divergence per bucket, averaged over buckets, then
        # mean/max over pairs; ES = per-bucket total-return range averaged.
        store = demo_store
        engines = sorted(store.engine_ids)
        per_pair = []
        for i in range(len(engines)):
            for j in range(i + 1, len(engines)):
                per_bucket = []
                for bucket in store.bucket_ids:
                    ga = store.cell("bm01", bucket, engines[i]).stats.growth
                    gb = store.cell("bm01", bucket, engines[j]).stats.growth
                    per_bucket.append(abs(gb - ga) / abs(ga) * 100.0)
                per_pair.append(sum(per_bucket) / len(per_bucket))
        es_vals = []
        for bucket in store.bucket_ids:
            trs = [store.cell("bm01", bucket, e).stats.total_return_pct for e in engines]
            es_vals.append(max(trs) - min(trs))
        row = next(r for r in demo_bundle.tables["divergence_summary"] if r["benchmark"] == "bm01")
        assert row["mean_pct"] == pytest.approx(sum(per_pair) / len(per_pair), rel=1e-12)
        assert row["max_pct"] == pytest.approx(max(per_pair), rel=1e-12)
        assert row["es_range_pp"] == pytest.approx(sum(es_vals) / len(es_vals), rel=1e-12)

    def test_concordance_table(self, demo_bundle):
        rows = demo_bundle.tables["concordance"]
        assert rows
        for row in rows:
            assert -1.0 - 1e-12 <= row["ccc"] <= 1.0 + 1e-12
        mins = {(r["benchmark"], r["metric"]) for r in demo_bundle.tables["concordance_min"]}
        assert ("bm01", "total_return") in mins

    def test_concordance_over_unequal_common_buckets(self, wide_store):
        # Dropped cells leave the bm01 pairs 2, 3 and 4 common buckets, so
        # their CCCs run as three stacks.
        e = wide_store.engine_ids
        store = _damaged(wide_store, dropped=[("bm01", "B00", e[0]), ("bm01", "B01", e[0]), ("bm01", "B01", e[1])])
        rows = [r for r in analyze(store).tables["concordance"] if r["benchmark"] == "bm01"]
        assert {r["n_buckets"] for r in rows} == {2, 3, 4}
        for r in rows:
            pair = (r["engine_a"], r["engine_b"])
            common = sorted(b for b in store.bucket_ids if all(store.cell("bm01", b, x) for x in pair))
            x, y = ([store.cell("bm01", b, x).stats.metric(r["metric"]) for b in common] for x in pair)
            assert r["n_buckets"] == len(common)
            assert repr(r["ccc"]) == repr(lin_ccc(x, y))

    def test_dollar_table_ruler_rows(self, demo_bundle):
        rows = {r["benchmark"]: r for r in demo_bundle.tables["dollar_ambiguity"]}
        assert rows["ruler_0.10pct"]["annual_ambiguity_usd"] == 1_000_000.0
        assert rows["ruler_3.71pct"]["annual_ambiguity_usd"] == 37_100_000.0

    def test_conjecture_block(self, demo_bundle):
        assert demo_bundle.conjecture["n_benchmarks"] == 3
        assert "spearman_rho" in demo_bundle.conjecture
        assert "bootstrap_ci95" in demo_bundle.conjecture

    def test_bundle_json_roundtrip(self, demo_bundle):
        again = ReportBundle.from_json(demo_bundle.to_json())
        assert again.tables == demo_bundle.tables
        assert again.run_id == demo_bundle.run_id

    def test_bundle_json_with_an_unwritten_key_refused(self, demo_bundle):
        obj = {**json.loads(demo_bundle.to_json()), "table": {}}
        with pytest.raises(TypeError, match="table"):
            ReportBundle.from_json(json.dumps(obj))


def _damaged(
    store: ResultStore,
    *,
    errors=(),
    truncated=(),
    dropped=(),
    no_reference=False,
    failed_benchmark=None,
    benchmarks=None,
    n_buckets=None,
    weight_sums=(),
    order=None,
) -> ResultStore:
    """A copy of ``store`` with cells failed, shortened or removed, the
    benchmark list cut or reordered, buckets cut, first-entry weight sums
    changed, and the cells reinserted in ``order``."""
    cells = dict(store.cells)
    for key in errors:
        cells[key] = CellResult(*key, error="RuntimeError: boom")
    for key in truncated:
        if cells[key].ok:
            cells[key] = replace(cells[key], n_days=cells[key].n_days - 1)
    for key in dropped:
        cells.pop(key, None)
    if no_reference:
        cells = {k: c for k, c in cells.items() if k[2] != REFERENCE.id}
    if failed_benchmark is not None:
        cells |= {k: CellResult(*k, error="ValueError: all fail") for k in cells if k[0] == failed_benchmark}
    damaged = copy.copy(store)
    damaged.cells = {k: cells[k] for k in (order or sorted(cells)) if k in cells}
    damaged.config = replace(store.config, benchmarks=tuple(benchmarks or store.config.benchmarks))
    damaged.partition = replace(store.partition, buckets=store.partition.buckets[:n_buckets])
    damaged.first_weight_sums = dict(store.first_weight_sums) | dict(weight_sums)
    return damaged


#: Bundle parts that ``oracles.analyze_loop`` does not write, each mapped to
#: the test that pins it. A table or constant added after the oracle lands
#: here with its own test, so the oracle that pins the rest stays unedited.
PINNED_ELSEWHERE: dict[str, str] = {}


def _parts(bundle: ReportBundle) -> dict[str, str]:
    """``bundle`` as named parts, each as sorted-key JSON: every top-level
    key but ``tables``, with ``metadata`` less its ``constants``; each
    constant as ``constants.<key>``; each table as ``tables.<name>``."""
    parts = dict(vars(bundle))
    tables = parts.pop("tables")
    parts["metadata"] = metadata = dict(parts["metadata"])
    constants = metadata.pop("constants")
    parts |= {f"constants.{key}": value for key, value in constants.items()}
    parts |= {f"tables.{name}": rows for name, rows in tables.items()}
    return {name: harness.dumps_json(value, sort_keys=True) for name, value in parts.items()}


def assert_matches_oracle(bundle: ReportBundle, oracle: ReportBundle) -> None:
    """Each part of ``oracle`` is the same part of ``bundle``, and ``bundle``
    has no part the oracle lacks unless ``PINNED_ELSEWHERE`` names it."""
    got, want = _parts(bundle), _parts(oracle)
    unpinned = sorted(set(got) - set(want) - set(PINNED_ELSEWHERE))
    assert not unpinned, f"bundle parts no oracle pins: {unpinned}"
    for name, text in want.items():
        assert got.get(name) == text, f"bundle part {name} differs from the oracle's"


class TestAnalyzeOracle:
    """``analyze`` against the pre-builder loop in ``oracles.analyze_loop``,
    compared part by part, on whole and damaged stores."""

    @pytest.mark.parametrize(
        "damage",
        [
            {},
            {"errors": [("bm01", "B00", REFERENCE.id), ("bm09", "B02", REFERENCE.id)]},
            {"dropped": [("bm02", "B01", REFERENCE.id), ("bm01", "B03", REFERENCE.id)]},
            {"no_reference": True},
            {"n_buckets": 1},
            {"benchmarks": ("bm09", "bm01")},
            {"failed_benchmark": "bm02"},
        ],
        ids=["whole", "errors", "dropped", "no_reference", "one_bucket", "two_benchmarks", "failed_benchmark"],
    )
    @pytest.mark.parametrize("which", ["demo_store", "wide_store"])
    def test_named_damage(self, request, which, damage):
        store = _damaged(request.getfixturevalue(which), **damage)
        assert_matches_oracle(analyze(store), analyze_loop(store))

    def test_every_part_is_pinned(self, demo_store):
        oracle = set(_parts(analyze_loop(demo_store)))
        assert not oracle & set(PINNED_ELSEWHERE), "a part the oracle pins needs no second pin"
        names = {
            *_parts(analyze(demo_store)),
            *(f"tables.{name}" for name in harness.TABLES),
            *(f"constants.{key}" for key in harness.REPORT_CONSTANTS),
        }
        assert names - oracle - set(PINNED_ELSEWHERE) == set()

    @pytest.mark.parametrize("edit", [
        lambda b: b.tables["divergence_records"][0].update(bucket="B99"),
        lambda b: b.tables["concordance_min"][0].update(ccc=b.tables["concordance_min"][0].pop("ccc_min")),
        lambda b: b.tables.update(extra=[]),
        lambda b: b.metadata["constants"].update(ccc_moments="sample (divisor n - 1)"),
        lambda b: b.metadata["constants"].update(extra=1),
        lambda b: b.metadata["config"].update(aum=2.0),
        lambda b: b.bucket_qc.update(mahalanobis_score=0.0),
        lambda b: b.conjecture.update(n_clusters=0),
    ], ids=["table_value", "column_name", "extra_table", "constant", "extra_constant", "config",
            "bucket_qc", "conjecture"])
    def test_helper_refuses_an_edited_bundle(self, demo_store, edit):
        bundle = analyze(demo_store)
        oracle = copy.deepcopy(bundle)
        assert_matches_oracle(bundle, oracle)
        edit(bundle)
        with pytest.raises(AssertionError):
            assert_matches_oracle(bundle, oracle)

    def test_one_bucket_skips_the_bootstrap(self, demo_store):
        conjecture = analyze(_damaged(demo_store, n_buckets=1)).conjecture
        assert conjecture["n_benchmarks"] == 3
        assert conjecture["bootstrap_ci95"] is None

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_damaged_store_matches_loop(self, demo_store, wide_store, data):
        store = data.draw(st.sampled_from([demo_store, wide_store]))
        keys = sorted(store.cells)
        some_cells = st.lists(st.sampled_from(keys), max_size=8)
        benchmarks = data.draw(st.permutations(store.config.benchmarks))
        damaged = _damaged(
            store,
            errors=data.draw(some_cells),
            truncated=data.draw(some_cells),
            dropped=data.draw(some_cells),
            no_reference=data.draw(st.booleans()),
            failed_benchmark=data.draw(st.none() | st.sampled_from(store.config.benchmarks)),
            benchmarks=benchmarks[: data.draw(st.integers(1, len(benchmarks)))],
            n_buckets=data.draw(st.integers(1, len(store.bucket_ids))),
            weight_sums=data.draw(
                st.dictionaries(st.sampled_from(sorted(store.first_weight_sums)), st.sampled_from([None, 0.5, 1.0]))
            ),
            order=data.draw(st.permutations(keys)),
        )
        assert_matches_oracle(analyze(damaged), analyze_loop(damaged))


class TestStrictJson:
    def test_non_finite_floats_become_null(self):
        obj = {"a": [1.5, float("nan"), (float("inf"), -float("inf"))], "b": {"c": np.float64("nan")}, "d": "NaN"}
        text = harness.dumps_json(obj, sort_keys=True)
        assert text == '{"a": [1.5, null, [null, null]], "b": {"c": null}, "d": "NaN"}'

    def test_finite_object_is_plain_json(self):
        obj = {"z": [0.1, -0.0, 1e300, None, True], "a": {"n": 3}}
        for kwargs in ({}, {"sort_keys": True}, {"sort_keys": True, "indent": 2}):
            assert harness.dumps_json(obj, **kwargs) == json.dumps(obj, **kwargs)


class TestEmit:
    def test_emitted_tables_reload(self, tmp_path, demo_bundle):
        paths = emit_reports(demo_bundle, str(tmp_path))
        with open(tmp_path / "divergence_records.csv", newline="") as f:
            records = list(csv.DictReader(f))
        assert len(records) == len(demo_bundle.tables["divergence_records"])
        for row, orig in zip(records, demo_bundle.tables["divergence_records"]):
            assert float(row["rel_diff_pct"]) == orig["rel_diff_pct"]
            assert row["run_id"] == demo_bundle.run_id
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["run_id"] == demo_bundle.run_id
        assert meta["config"]["seed"] == 3
        assert "post|abs|x1|atomic|aligned|full" in meta["config"]["engines"]
        partition = json.loads((tmp_path / "partition.json").read_text())
        assert {"seed", "n_candidates", "score", "buckets"} <= set(partition)

    def test_one_csv_per_table_and_the_json_sidecars(self, tmp_path, demo_bundle):
        paths = emit_reports(demo_bundle, str(tmp_path))
        names = [f"{name}.csv" for name in harness.TABLES]
        names += ["run_metadata.json", "bucket_qc.json", "conjecture_check.json", "partition.json"]
        assert paths == [str(tmp_path / name) for name in names]
        assert sorted(os.listdir(tmp_path)) == sorted(names)
        for name, (columns, _) in harness.TABLES.items():
            with open(tmp_path / f"{name}.csv", newline="") as f:
                header, *rows = csv.reader(f)
            assert header == columns + ["run_id"]
            assert len(rows) == len(demo_bundle.tables[name])
            assert all(len(row) == len(header) and row[-1] == demo_bundle.run_id for row in rows)

    def test_unwritable_dir_raises(self, demo_bundle):
        with pytest.raises(OSError):
            emit_reports(demo_bundle, "/proc/definitely/not/writable")


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


# Runs ``crossbt analyze`` in a fresh interpreter and fails if it imported numpy.ma.
ANALYZE_WITHOUT_NUMPY_MA = '''
import sys

import crossbt.cli

code = crossbt.cli.main(["analyze"] + sys.argv[1:])
if "numpy.ma" in sys.modules:
    sys.exit("analyze imported numpy.ma")
sys.exit(code)
'''

# Runs the five CLI stages in one fresh interpreter and fails at the first
# that exits 1 or has imported numpy.ma.
STAGES_WITHOUT_NUMPY_MA = '''
import sys

import crossbt.cli

for stage in ("gen-data", "buckets", "run", "analyze", "report"):
    if crossbt.cli.main([stage] + sys.argv[1:]) == crossbt.cli.EXIT_ERROR:
        sys.exit(f"{stage} failed")
    if "numpy.ma" in sys.modules:
        sys.exit(f"{stage} imported numpy.ma")
'''

#: 22 buckets of 2 take the Wilcoxon normal approximation and the cluster bootstrap.
NUMPY_MA_CONFIG = {
    "seed": 5,
    "synthetic": {"n_assets": 44, "n_days": 140, "seed": None, "n_sectors": 2},
    "buckets": {"n_buckets": 22, "bucket_size": 2, "n_candidates": 20},
    "benchmarks": ["bm01", "bm02", "bm09"],
    "engines": ["reference", "pre_trade"],
    "permutation_draws": 100,
    "bootstrap_draws": 50,
}


class TestCli:
    def _write_config(self, path: Path) -> str:
        cfg = {
            "seed": 5,
            "synthetic": {
                "n_assets": 18,
                "n_days": 140,
                "seed": None,
                "annual_vol": 0.25,
                "annual_drift": 0.06,
                "correlation": 0.3,
                "n_sectors": 6,
            },
            "buckets": {"n_buckets": 3, "bucket_size": 6, "n_candidates": 20},
            "benchmarks": ["bm01", "bm02", "bm09"],
            "engines": ["reference", "pre_trade"],
            "permutation_draws": 100,
            "bootstrap_draws": 50,
        }
        p = path / "config.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_full_pipeline_exit_codes(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["gen-data", "--config", cfg, "--out", out]) == 0
        assert main(["buckets", "--config", cfg, "--out", out]) == 0
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert main(["analyze", "--config", cfg, "--out", out]) == 0
        assert main(["report", "--config", cfg, "--out", out]) == 0
        for name in ("prices.csv", "sectors.csv", "partition.json", "bucket_qc.json"):
            assert (tmp_path / "out" / name).exists()
        assert (tmp_path / "out" / "store" / "cells.csv").exists()
        assert (tmp_path / "out" / "report" / "divergence_summary.csv").exists()

    def test_analyze_refuses_a_store_from_another_seed(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        run_id = json.loads((out / "store" / "store.json").read_text())["run_id"]
        assert main(["analyze", "--config", cfg, "--seed", "99", "--out", str(out)]) == 1
        assert not (out / "analysis").exists()
        assert run_id in capsys.readouterr().err

    def test_report_refuses_a_bundle_from_another_seed(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert main(["report", "--config", cfg, "--seed", "99", "--out", str(out)]) == 1
        assert not (out / "report").exists()

    @pytest.mark.parametrize("buckets", [
        {"n_buckets": 0, "bucket_size": 6, "n_candidates": 20},
        {"n_buckets": 4, "bucket_size": 6, "n_candidates": 20},
    ])
    def test_gen_data_refuses_a_partition_that_cannot_run(self, tmp_path, capsys, buckets):
        p = Path(self._write_config(tmp_path))
        cfg = json.loads(p.read_text())
        cfg["buckets"] = buckets
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(p), "--out", str(out)]) == 1
        assert not out.exists()
        assert "buckets." in capsys.readouterr().err

    def test_gen_data_refuses_buckets_above_the_sector_count(self, tmp_path, capsys):
        # The buckets stage would raise InfeasibleConstraint on this panel.
        p = Path(self._write_config(tmp_path))
        cfg = json.loads(p.read_text())
        cfg["synthetic"].update(n_assets=12, n_sectors=2)
        cfg["buckets"] = {"n_buckets": 2, "bucket_size": 3, "n_candidates": 20}
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(p), "--out", str(out)]) == 1
        assert not out.exists()
        assert "buckets.bucket_size must be <= the synthetic panel's sector count" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"permutation_draws": 10.5}, "permutation_draws must be an int, got 10.5"),
        ({"warmup": 10.5}, "warmup must be an int, got 10.5"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"buckets": {"n_buckets": 3, "bucket_size": 6, "n_candidates": 20.5}},
         "buckets.n_candidates must be an int, got 20.5"),
        ({"synthetic": {"n_assets": 18, "n_days": 140, "seed": None, "n_sectors": 6.0}},
         "n_sectors must be an int, got 6.0"),
        ({"benchmarks": []}, "benchmarks must be non-empty"),
        ({"warmup": 139}, "warm-up 139 leaves under 2 evaluation days of 140"),
    ])
    def test_gen_data_refuses_what_a_later_stage_would(self, tmp_path, capsys, edit, message):
        # Each once passed gen-data and buckets, then failed in run or analyze.
        p = Path(self._write_config(tmp_path))
        p.write_text(json.dumps({**json.loads(p.read_text()), **edit}))
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(p), "--out", str(out)]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("synthetic, top, message", [
        ({"annual_drift": {"SEC0": 0.1}}, {},
         "synthetic.annual_drift must be a number or a map with every sector label, got {'SEC0': 0.1}"),
        ({"start_price": math.nan}, {}, "synthetic.start_price must be finite, got nan"),
        ({}, {"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_gen_data_refuses_what_it_once_failed_on(self, tmp_path, capsys, synthetic, top, message):
        # Each once built a run id, then failed inside gen-data: a drift map
        # without SEC1, a NaN price path and numpy's refusal of a negative seed.
        p = Path(self._write_config(tmp_path))
        cfg = json.loads(p.read_text())
        cfg["synthetic"].update(synthetic)
        p.write_text(json.dumps({**cfg, **top}))  # NaN as Python's json writes it
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(p), "--out", str(out)]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--engines", "reference,post|abs|x2_0|atomic|aligned|full"),
        ("--benchmarks", ","),
    ])
    def test_stages_refuse_a_flag_no_config_reads(self, tmp_path, flag, value):
        # x2_0 once ran as a 20x commission engine stored as x20; an empty
        # benchmark list once passed gen-data and buckets and failed in run.
        out = tmp_path / "out"
        for stage in ("gen-data", "run"):
            assert main([stage, "--config", self._write_config(tmp_path), flag, value, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("aum", math.inf),
        ("initial_capital", math.inf),
        ("tost_margins_pp", [0.1, math.inf]),
        ("cost_regimes_bps", [0, 18, 36, 60, math.nan]),
    ])
    def test_run_refuses_a_non_finite_config_value(self, tmp_path, capsys, key, value):
        p = Path(self._write_config(tmp_path))
        cfg = json.loads(p.read_text())
        cfg[key] = value
        p.write_text(json.dumps(cfg))  # Infinity and NaN tokens, as Python's json writes them
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 1
        assert not (out / "store").exists()
        assert f"{key} must be" in capsys.readouterr().err

    def test_all_command(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "all-out")
        assert main(["all", "--config", cfg, "--out", out]) == 0

    def test_validation_findings_exit_code(self, tmp_path):
        cfg_obj = json.loads(Path(self._write_config(tmp_path)).read_text())
        cfg_obj["engines"] = ["reference", "post|abs|x1|atomic|aligned|trunc30"]
        cfg_obj["benchmarks"] = ["bm01"]
        p = tmp_path / "trunc.json"
        p.write_text(json.dumps(cfg_obj))
        out = str(tmp_path / "trunc-out")
        assert main(["all", "--config", str(p), "--out", out]) == 2

    def test_negative_equity_reaches_its_finding(self, tmp_path):
        # At 3000 bps a doubled commission takes the x2 cells' equity below
        # zero. Their cagr has no real value, yet every stage must read them.
        x2 = "post|abs|x2|atomic|aligned|full"
        cfg = {
            "seed": 1,
            "synthetic": {"n_assets": 12, "n_days": 120, "seed": None, "n_sectors": 6},
            "buckets": {"n_buckets": 2, "bucket_size": 6, "n_candidates": 20},
            "benchmarks": ["bm03"],
            "engines": ["reference", x2],
            "cost_regimes_bps": [0, 18, 36, 60, 3000],
            "cost_overrides_bps": {"bm03": 3000},
            "permutation_draws": 50,
            "bootstrap_draws": 20,
        }
        p = tmp_path / "negative.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        for stage, code in (("run", 0), ("analyze", 2), ("report", 2)):
            assert main([stage, "--config", str(p), "--out", str(out)]) == code, stage
        bundle = json.loads((out / "analysis" / "bundle.json").read_text())
        found = [(f["kind"], f["bucket"], f["engine"]) for f in bundle["tables"]["validation"]]
        assert found == [("NonPositiveEquity", "B00", x2), ("NonPositiveEquity", "B01", x2)]
        # str() of a complex number ends in "j)".
        for name, text in _tree(out).items():
            assert b"j)" not in text, name
        # The NaN cagr cells are null in every JSON file, which strict JSON
        # parsers read; Python's json would also read a bare NaN token.
        for path in out.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        ccc = {r["metric"]: r["ccc"] for r in bundle["tables"]["concordance"]}
        assert ccc["cagr"] is None and ccc["total_return"] is not None

    def test_analyze_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma costs about 12 ms to import; np.percentile and np.unique
        # import it on their first call.
        p = tmp_path / "config.json"
        p.write_text(json.dumps(NUMPY_MA_CONFIG))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", ANALYZE_WITHOUT_NUMPY_MA, "--config", str(p), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        tests = {r["test"] for r in json.loads((out / "analysis" / "bundle.json").read_text())["tables"]["stats_tests"]}
        assert "wilcoxon-normal" in tests

    def test_no_stage_imports_numpy_ma(self, tmp_path):
        # The engine's day mask, the harness's resampled-means set and
        # stats._percentiles each stand in for a numpy call that imports it;
        # a fifo and a shifted engine take the sequential fill and the shift.
        p = tmp_path / "config.json"
        p.write_text(json.dumps({**NUMPY_MA_CONFIG, "engines": ["reference", "fifo_sequential", "shifted_one_day"]}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", STAGES_WITHOUT_NUMPY_MA, "--config", str(p), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "report").is_dir()

    def test_builtin_config_run_id(self):
        assert RunConfig.from_dict(DEMO_CONFIG).run_id() == "fdc678179de9"

    def test_error_exit_code(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "nonexistent")]) == 1

    @pytest.mark.parametrize(
        "argv",
        [[], ["frobnicate"], ["run", "--no-such-flag"], ["run", "--jobs", "abc"], ["run", "--jobs", "0"],
         ["run", "--jobs", "-3"], ["run", "--jobs", "1.5"]],
    )
    def test_usage_error_returns_the_error_code(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)] if argv else argv) == EXIT_ERROR
        assert "usage: crossbt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_returns_0(self, capsys, argv):
        assert main(argv) == 0
        assert "usage: crossbt" in capsys.readouterr().out

    def test_engine_and_benchmark_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "ovr")
        code = main(
            [
                "run", "--config", cfg, "--out", out,
                "--engines", "reference,percent_divided",
                "--benchmarks", "bm01",
            ]
        )
        assert code == 0
        meta = json.loads((Path(out) / "store" / "store.json").read_text())
        assert meta["config"]["benchmarks"] == ["bm01"]
        assert len(meta["config"]["engines"]) == 2

    def test_report_stage_equals_emit_of_analyze(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("run", "analyze", "report"):
            assert main([stage, "--config", cfg, "--out", str(out)]) == 0
        direct = tmp_path / "direct"
        emit_reports(analyze(ResultStore.load(str(out / "store"))), str(direct))
        assert _tree(out / "report") == _tree(direct)

    def test_analyze_and_report_read_no_equity_file(self, tmp_path):
        # analyze reads store.json and cells.csv only; the full loader still
        # needs equity.csv.
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("run", "analyze", "report"):
            assert main([stage, "--config", cfg, "--out", str(out)]) == 0
        bundle, report = _tree(out / "analysis"), _tree(out / "report")
        for name in ("analysis", "report"):
            shutil.rmtree(out / name)
        (out / "store" / "equity.csv").unlink()
        for stage in ("analyze", "report"):
            assert main([stage, "--config", cfg, "--out", str(out)]) == 0
        assert _tree(out / "analysis") == bundle
        assert _tree(out / "report") == report
        with pytest.raises(FileNotFoundError, match="equity.csv"):
            ResultStore.load(str(out / "store"))

    def test_pipeline_runs_without_scipy(self, tmp_path):
        cfg = self._write_config(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        trees = {}
        for mode in ("block", "plain"):
            out = tmp_path / mode
            proc = subprocess.run(
                [sys.executable, "-c", NO_SCIPY_CLI, mode, "all", "--config", cfg, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            trees[mode] = _tree(out)
        assert trees["block"] == trees["plain"]
        assert "analysis/bundle.json" in trees["block"]
