"""Trace serialization round trips."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.config import bitslice_config
from repro.emulator.machine import Machine
from repro.emulator.trace import Trace
from repro.emulator.tracefile import load_trace, pack_trace, save_trace, unpack_trace
from repro.isa.assembler import assemble
from repro.isa.encoding import encode
from repro.timing.simulator import simulate

from tests.test_differential import straight_line_program
from tests.test_timing_fastpath import memory_program


def test_pack_unpack_roundtrip(small_traces):
    records = small_traces["li"][:500]
    arrays = pack_trace(records)
    again = unpack_trace(arrays)
    assert len(again) == len(records)
    for a, b in zip(records, again):
        assert a == b


def test_save_load_roundtrip(tmp_path, small_traces):
    records = small_traces["bzip"][:800]
    path = tmp_path / "trace.npz"
    n = save_trace(path, records)
    assert n == 800
    again = load_trace(path)
    assert tuple(again) == tuple(records)


def test_loaded_trace_simulates_identically(tmp_path, small_traces):
    """Simulation over a reloaded trace must be bit-identical."""
    records = small_traces["vortex"][:1500]
    path = tmp_path / "trace.npz"
    save_trace(path, records)
    direct = simulate(bitslice_config(2), records)
    reloaded = simulate(bitslice_config(2), load_trace(path))
    assert direct.ipc == reloaded.ipc
    assert direct.cycles == reloaded.cycles
    assert direct.branch_mispredicts == reloaded.branch_mispredicts


def test_instruction_objects_shared(small_traces):
    """Repeated instruction words decode to the same object (memory)."""
    records = unpack_trace(pack_trace(small_traces["li"][:500]))
    by_word: dict[int, object] = {}
    from repro.isa.encoding import encode

    for r in records:
        w = encode(r.inst)
        if w in by_word:
            assert r.inst is by_word[w]
        by_word[w] = r.inst


def test_empty_trace_roundtrip(tmp_path):
    path = tmp_path / "empty.npz"
    assert save_trace(path, []) == 0
    assert load_trace(path) == []


def test_version_check():
    arrays = pack_trace([])
    arrays["version"] = np.array([99], dtype=np.uint32)
    with pytest.raises(ValueError):
        unpack_trace(arrays)


def test_mem_addr_sentinel_survives(small_traces):
    records = unpack_trace(pack_trace(small_traces["li"][:200]))
    non_mem = [r for r in records if not (r.is_load or r.is_store)]
    assert non_mem and all(r.mem_addr == -1 for r in non_mem)


# ------------------------------------------------------- corruption defenses


def test_future_version_names_the_refusal(small_traces):
    from repro.harness.errors import TraceCorruption

    arrays = pack_trace(small_traces["li"][:50])
    arrays["version"] = np.array([99], dtype=np.uint32)
    with pytest.raises(TraceCorruption) as excinfo:
        unpack_trace(arrays)
    assert "99" in str(excinfo.value)


def test_flipped_payload_bit_fails_checksum(small_traces):
    from repro.harness.errors import TraceCorruption

    arrays = {k: v.copy() for k, v in pack_trace(small_traces["li"][:100]).items()}
    arrays["result"].view(np.uint8)[17] ^= 0x10
    with pytest.raises(TraceCorruption) as excinfo:
        unpack_trace(arrays)
    assert "checksum" in str(excinfo.value)


def test_missing_field_rejected(small_traces):
    from repro.harness.errors import TraceCorruption

    arrays = dict(pack_trace(small_traces["li"][:50]))
    del arrays["taken"]
    with pytest.raises(TraceCorruption):
        unpack_trace(arrays)


def test_length_mismatch_rejected(small_traces):
    from repro.harness.errors import TraceCorruption

    arrays = {k: v.copy() for k, v in pack_trace(small_traces["li"][:50]).items()}
    arrays["pc"] = arrays["pc"][:-1]
    with pytest.raises(TraceCorruption):
        unpack_trace(arrays)


def test_truncated_file_rejected(tmp_path, small_traces):
    from repro.harness.errors import TraceCorruption

    path = tmp_path / "t.npz"
    save_trace(path, small_traces["li"][:200])
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # simulate a torn write
    with pytest.raises(TraceCorruption):
        load_trace(path)


def test_missing_file_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trace(tmp_path / "absent.npz")


def test_legacy_v1_archive_still_loads(tmp_path, small_traces):
    """Pre-checksum archives (format 1) must stay readable."""
    records = small_traces["li"][:100]
    arrays = {k: v for k, v in pack_trace(records).items() if k != "checksum"}
    arrays["version"] = np.array([1], dtype=np.uint32)
    path = tmp_path / "legacy.npz"
    np.savez_compressed(path, **arrays)
    assert tuple(load_trace(path)) == tuple(records)


def test_save_leaves_no_temp_files(tmp_path, small_traces):
    path = tmp_path / "trace.npz"
    save_trace(path, small_traces["li"][:100])
    assert [p.name for p in tmp_path.iterdir()] == ["trace.npz"]


def test_failed_save_does_not_clobber_existing(tmp_path, small_traces):
    """Atomic replace: the old archive survives a failed rewrite."""
    path = tmp_path / "trace.npz"
    save_trace(path, small_traces["li"][:100])
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        save_trace(path, [object()])  # not TraceRecords: packing explodes
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["trace.npz"]


# ------------------------------------------------------------ format freeze

_FIELDS = ("pc", "word", "rs_val", "rt_val", "result", "mem_addr", "taken", "next_pc")


def _pack_records(records) -> dict:
    """Format-2 arrays packed record by record: the oracle that pins the
    file format (field arrays, dtypes and the CRC-32 over them)."""
    n = len(records)
    arrays = {
        "version": np.array([2], dtype=np.uint32),
        "pc": np.empty(n, dtype=np.uint32),
        "word": np.empty(n, dtype=np.uint32),
        "rs_val": np.empty(n, dtype=np.uint32),
        "rt_val": np.empty(n, dtype=np.uint32),
        "result": np.empty(n, dtype=np.uint32),
        "mem_addr": np.empty(n, dtype=np.int64),
        "taken": np.empty(n, dtype=np.bool_),
        "next_pc": np.empty(n, dtype=np.uint32),
    }
    for i, r in enumerate(records):
        for name in _FIELDS:
            value = encode(r.inst) if name == "word" else getattr(r, name)
            arrays[name][i] = value & 0xFFFFFFFF if name == "result" else value
    crc = 0
    for name in ("version",) + _FIELDS:
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(str(arrays[name].dtype).encode(), crc)
        crc = zlib.crc32(arrays[name].tobytes(), crc)
    arrays["checksum"] = np.array([crc & 0xFFFFFFFF], dtype=np.uint32)
    return arrays


def _assert_format_frozen(records, tmp_path) -> None:
    oracle = _pack_records(records)
    for packed in (pack_trace(Trace.from_records(records)), pack_trace(records)):
        assert packed.keys() == oracle.keys()
        for name, array in oracle.items():
            assert packed[name].dtype == array.dtype, name
            assert np.array_equal(packed[name], array), name
    # Both format versions load to a Trace whose records are the emulator's.
    legacy = {k: v for k, v in oracle.items() if k != "checksum"}
    legacy["version"] = np.array([1], dtype=np.uint32)
    for version, arrays in ((2, oracle), (1, legacy)):
        path = tmp_path / f"v{version}.npz"
        np.savez_compressed(path, **arrays)
        loaded = load_trace(path)
        assert isinstance(loaded, Trace)
        assert tuple(loaded) == tuple(records)
        assert np.array_equal(pack_trace(loaded)["checksum"], oracle["checksum"])


@given(st_program=straight_line_program(), memory=memory_program())
@settings(max_examples=15, deadline=None)
def test_format_frozen_on_random_programs(tmp_path_factory, st_program, memory):
    for source in (st_program[0], memory):
        records = tuple(Machine(assemble(source)).trace(5_000))
        _assert_format_frozen(records, tmp_path_factory.mktemp("freeze"))


def test_format_frozen_on_a_workload(tmp_path, small_traces):
    _assert_format_frozen(small_traces["mcf"], tmp_path)
