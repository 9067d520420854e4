"""Canonical config serialization, fingerprints, validation, presets."""

import dataclasses
import json

import numpy as np
import pytest

from repro.arch.config import (
    PRESETS,
    CacheConfig,
    CpuConfig,
    MachineConfigs,
    SparseCoreConfig,
    config_fingerprint,
    config_variant,
    default_configs,
    get_preset,
    preset_names,
    register_preset,
    sweepable_fields,
)
from repro.arch.trace import OpKind
from repro.errors import ConfigError, ReproError
from repro.record.columnar import ColumnarTrace


# -- canonical form ----------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    CacheConfig(),
    CpuConfig(),
    SparseCoreConfig(),
    MachineConfigs(),
    SparseCoreConfig(num_sus=8, scache_bandwidth=64),
    CpuConfig(cycles_per_step=2.5, scalar_cpi=0.5),
])
def test_round_trip(cfg):
    """``to_dict`` (the form fingerprints hash) survives JSON unchanged."""
    data = cfg.to_dict()
    assert json.loads(json.dumps(data)) == data


def test_to_dict_is_plain_data():
    data = MachineConfigs().to_dict()
    json.dumps(data)  # no dataclass leaks
    assert data["cpu"]["scalar_cpi"] == CpuConfig().scalar_cpi
    assert isinstance(data["sparsecore"]["cache"], dict)


# -- fingerprints ------------------------------------------------------------

def test_fingerprint_stable_across_field_order():
    data = SparseCoreConfig().to_dict()
    reordered = dict(reversed(list(data.items())))
    reordered["cache"] = CacheConfig(
        **dict(reversed(list(data["cache"].items()))))
    assert (SparseCoreConfig(**reordered).fingerprint()
            == SparseCoreConfig().fingerprint())


def test_fingerprint_sensitive_to_every_sparsecore_field():
    base = SparseCoreConfig()
    for f in dataclasses.fields(SparseCoreConfig):
        if f.name == "cache":
            changed = dataclasses.replace(
                base, cache=CacheConfig(l1d_bytes=1 << 16))
        else:
            value = getattr(base, f.name)
            changed = dataclasses.replace(base, **{f.name: value * 2})
        assert changed.fingerprint() != base.fingerprint(), f.name


def test_fingerprint_distinguishes_config_kinds():
    # Same field *values* under a different class must not collide.
    assert CpuConfig().fingerprint() != SparseCoreConfig().fingerprint()
    assert config_fingerprint(CpuConfig()) == CpuConfig().fingerprint()


def test_machine_fingerprint_covers_both_halves():
    base = MachineConfigs()
    assert base.replace_sparsecore(num_sus=8).fingerprint() \
        != base.fingerprint()
    assert base.replace_cpu(cycles_per_step=2.5).fingerprint() \
        != base.fingerprint()


# -- validation --------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"num_sus": 0},
    {"num_sus": -2},
    {"scache_bandwidth": 0},
    {"scache_slot_keys": 3},       # must be a power of two
    {"su_buffer_width": 12},       # must be a power of two
    {"scratchpad_bytes": -1},
    {"implicit_overlap": 0},
])
def test_sparsecore_validation(kwargs):
    with pytest.raises(ConfigError):
        SparseCoreConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"scalar_cpi": 0.0},
    {"cycles_per_step": 0.0},
    {"mispredict_rate": -0.1},
    {"mispredict_rate": 1.5},
])
def test_cpu_validation(kwargs):
    with pytest.raises(ConfigError):
        CpuConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"l1d_bytes": 0},
    {"line_bytes": 48},            # must be a power of two
    {"l2_latency": -1},
])
def test_cache_validation(kwargs):
    with pytest.raises(ConfigError):
        CacheConfig(**kwargs)


def test_config_error_is_a_repro_error():
    assert issubclass(ConfigError, ReproError)


# -- variants ----------------------------------------------------------------

def test_config_variant_routes_through_helpers():
    base = SparseCoreConfig()
    assert config_variant(base, "num_sus", 8) == base.with_sus(8)
    assert config_variant(base, "implicit_overlap", 4) \
        == dataclasses.replace(base, implicit_overlap=4)
    with pytest.raises(ConfigError):
        config_variant(base, "scache_bandwidth", 0)  # revalidated


def test_config_variant_rejects_unknown_and_derived_fields():
    base = SparseCoreConfig()
    with pytest.raises(ConfigError):
        config_variant(base, "warp_size", 32)
    with pytest.raises(ConfigError):
        config_variant(base, "scratchpad_bytes", 1 << 16)  # record-time


def test_sweepable_fields_are_real_fields():
    names = {f.name for f in dataclasses.fields(SparseCoreConfig)}
    assert set(sweepable_fields()) <= names
    assert "num_sus" in sweepable_fields()
    assert "cache" not in sweepable_fields()


def _pricing_probe_trace():
    """One fixed trace with every kind of work the SparseCore model
    prices: a nested burst, singleton ops, a value op with FLOP pairs,
    and scalar work on both sides."""
    def keys(*runs):
        return np.concatenate([np.arange(lo, hi, step, dtype=np.int64)
                               for lo, hi, step in runs])

    trace = ColumnarTrace("axes")
    dense, sparse = keys((0, 400, 1)), keys((0, 400, 7))
    burst = trace.new_burst()
    for i in range(6):
        trace.add_op_keys(OpKind.INTERSECT, dense, keys((i, 400, 3)),
                          burst=burst, nested=True)
    # Two disjoint walks in one overlap window: bandwidth-bound.
    for lo in (1000, 2000):
        trace.add_op_keys(OpKind.INTERSECT, dense, keys((lo, lo + 400, 1)))
    for i in range(4):
        trace.add_op_keys(OpKind.INTERSECT, sparse, keys((0, 40 * (i + 1), 1)))
    trace.add_op_keys(OpKind.VINTER, dense, sparse, flop_pairs=500)
    trace.add_scalar(2000)
    trace.add_sc_scalar(300)
    return trace


@pytest.mark.parametrize("field_name", sweepable_fields())
def test_every_sweepable_field_moves_cycles(field_name):
    """An axis that cannot move the cycles of a recorded trace would
    print one number at every design point."""
    from repro.arch.sparsecore import SparseCoreModel

    trace = _pricing_probe_trace()
    base = SparseCoreConfig()
    doubled = config_variant(base, field_name,
                             getattr(base, field_name) * 2)
    assert (SparseCoreModel(doubled).cost(trace).total_cycles
            != SparseCoreModel(base).cost(trace).total_cycles)


# -- presets -----------------------------------------------------------------

def test_paper_preset_is_the_default():
    assert get_preset("paper") == MachineConfigs()
    assert default_configs() == PRESETS["paper"]
    assert "paper" in preset_names()


def test_paper_1su_preset():
    assert get_preset("paper-1su").sparsecore.num_sus == 1


def test_unknown_preset_lists_known_names():
    with pytest.raises(ConfigError, match="paper"):
        get_preset("enterprise")


def test_register_preset_no_silent_overwrite():
    name = "test-tmp-preset"
    try:
        register_preset(name, MachineConfigs())
        assert get_preset(name) == MachineConfigs()
        with pytest.raises(ConfigError):
            register_preset(name, MachineConfigs())
        register_preset(
            name, MachineConfigs().replace_sparsecore(num_sus=2),
            overwrite=True)
        assert get_preset(name).sparsecore.num_sus == 2
    finally:
        PRESETS.pop(name, None)


#: A config moving all three record-time fields off Table 2 (it used to
#: price triangle at scale 0.2 at the paper preset's 17315.1 cycles
#: under fingerprint fb5c608be94fabd0 instead of 86a84469e8c885f8).
RECORD_TIME_MOVED = MachineConfigs(sparsecore=SparseCoreConfig(
    scratchpad_bytes=1024, su_buffer_width=4,
    cache=CacheConfig(l2_bytes=4096)))


def test_register_preset_refuses_record_time_fields():
    name = "test-record-time-preset"
    with pytest.raises(ConfigError, match="scratchpad_bytes") as info:
        register_preset(name, RECORD_TIME_MOVED)
    for field_name in ("su_buffer_width", "cache"):
        assert field_name in str(info.value)
    assert name not in PRESETS
    with pytest.raises(ConfigError, match="cache"):
        register_preset(name, MachineConfigs(sparsecore=SparseCoreConfig(
            cache=CacheConfig(l1d_bytes=1 << 16))))
    assert name not in PRESETS


def test_run_workload_refuses_record_time_fields():
    from repro.workloads import run_workload

    with pytest.raises(ConfigError, match="su_buffer_width") as info:
        run_workload("triangle", scale=0.2, config=RECORD_TIME_MOVED)
    for field_name in ("scratchpad_bytes", "cache"):
        assert field_name in str(info.value)
    with pytest.raises(ConfigError, match="scratchpad_bytes"):
        run_workload("triangle", scale=0.2, config=MachineConfigs(
            sparsecore=SparseCoreConfig(scratchpad_bytes=1024)))


# -- golden: the paper preset prices bit-identically to the defaults ---------

def test_paper_preset_prices_bit_identical():
    import numpy as np

    from repro.workloads import get_workload, run_workload

    def canon(value):
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    spec = get_workload("triangle")
    default = run_workload(spec, None, 0.3, cache=None).metrics
    preset = run_workload(spec, None, 0.3, cache=None,
                          config=get_preset("paper")).metrics
    assert json.loads(json.dumps(canon(preset), sort_keys=True)) \
        == json.loads(json.dumps(canon(default), sort_keys=True))
