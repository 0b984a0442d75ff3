"""The byte-conservation ledger: clean e2e runs, injected leaks, ledger
invariants driven synthetically."""

import pytest

from repro.check import ConservationError, ConservationLedger, conserve
from repro.core import build_local_swift
from repro.des import Environment


# -- end-to-end: the real data path is conservative ---------------------------


def test_plain_write_read_is_conservative():
    deployment = build_local_swift(num_agents=3)
    client = deployment.client()
    with conserve(deployment.env) as ledger:
        handle = client.open("obj", "w", striping_unit=4096)
        handle.pwrite(0, b"x" * 20_000)
        handle.pwrite(7_000, b"y" * 5_000)
        assert handle.pread(0, 20_000) == (
            b"x" * 7_000 + b"y" * 5_000 + b"x" * 8_000)
        handle.close()
    assert ledger.errors == []
    assert ledger.pending_ops == []
    assert ledger.events_observed > 0


def test_parity_write_read_is_conservative():
    deployment = build_local_swift(num_agents=4, parity=True)
    client = deployment.client()
    with conserve(deployment.env) as ledger:
        handle = client.open("obj", "w", parity=True, striping_unit=4096)
        handle.pwrite(0, b"a" * 30_000)
        handle.pwrite(1_234, b"b" * 7_777)  # partial stripes: read-modify-write
        handle.pread(0, 30_000)
        handle.close()
    assert ledger.errors == []
    assert ledger.pending_ops == []


def test_degraded_path_is_conservative():
    deployment = build_local_swift(num_agents=4, parity=True)
    client = deployment.client()
    handle = client.open("obj", "w", parity=True, striping_unit=4096)
    engine = handle.engine
    handle.pwrite(0, b"c" * 25_000)
    deployment.crash_agent(engine.data_channels[1].agent_host)
    engine.mark_failed(1)
    engine.read_timeout_s = 0.01
    with conserve(deployment.env) as ledger:
        assert handle.pread(0, 25_000) == b"c" * 25_000
        handle.pwrite(500, b"d" * 9_000)
        assert handle.pread(500, 9_000) == b"d" * 9_000
    assert ledger.errors == []


def test_uninstrumented_run_pays_nothing():
    # No observer attached: no ops are even named.
    deployment = build_local_swift(num_agents=3)
    client = deployment.client()
    ledger = ConservationLedger(deployment.env)  # never installed
    handle = client.open("obj", "w", striping_unit=4096)
    handle.pwrite(0, b"x" * 10_000)
    handle.close()
    assert ledger.events_observed == 0
    assert deployment.env._transfer_hooks == []


# -- injected leaks are caught and attributed ---------------------------------


def test_one_byte_parity_truncation_is_caught(monkeypatch):
    import repro.core.distribution as distribution

    real = distribution.compute_parity

    def truncating(units, unit_size):
        return real(units, unit_size)[:-1]

    monkeypatch.setattr(distribution, "compute_parity", truncating)
    deployment = build_local_swift(num_agents=4, parity=True)
    client = deployment.client()
    with pytest.raises(ConservationError, match=r"obj#w1: parity region"):
        with conserve(deployment.env):
            handle = client.open("obj", "w", parity=True, striping_unit=4096)
            handle.pwrite(0, b"a" * 30_000)


def test_raise_on_leak_false_only_records(monkeypatch):
    import repro.core.distribution as distribution

    real = distribution.compute_parity
    monkeypatch.setattr(distribution, "compute_parity",
                        lambda units, unit_size: real(units, unit_size)[:-1])
    deployment = build_local_swift(num_agents=4, parity=True)
    client = deployment.client()
    with conserve(deployment.env, raise_on_leak=False) as ledger:
        handle = client.open("obj", "w", parity=True, striping_unit=4096)
        handle.pwrite(0, b"a" * 30_000)
    assert len(ledger.errors) == 1
    assert ledger.errors[0].startswith("obj#w1:")


def test_short_reconstruction_is_caught(monkeypatch):
    import repro.core.distribution as distribution

    real = distribution.reconstruct_unit
    monkeypatch.setattr(
        distribution, "reconstruct_unit",
        lambda survivors, parity, unit_size:
            real(survivors, parity, unit_size)[:-1])
    deployment = build_local_swift(num_agents=4, parity=True)
    client = deployment.client()
    handle = client.open("obj", "w", parity=True, striping_unit=4096)
    engine = handle.engine
    handle.pwrite(0, b"e" * 20_000)
    deployment.crash_agent(engine.data_channels[0].agent_host)
    engine.mark_failed(0)
    engine.read_timeout_s = 0.01
    with conserve(deployment.env, raise_on_leak=False) as ledger:
        handle.pread(0, 20_000)
    assert any("reconstructed unit" in error for error in ledger.errors)


# -- ledger invariants, driven synthetically ----------------------------------


def _ledger():
    env = Environment()
    return env, ConservationLedger(env).install()


def test_write_leak_detected():
    env, ledger = _ledger()
    env._notify_transfer("write-begin", op="o#w1", logical_offset=0,
                         logical_bytes=100)
    env._notify_transfer("write-region", op="o#w1", agent=0,
                         region_offset=0, nbytes=99)
    env._notify_transfer("wire-data", op="o#w1", agent=0, index=0,
                         payload_bytes=99)
    env._notify_transfer("write-end", op="o#w1")
    assert any("logical 100 bytes" in error for error in ledger.errors)


def test_wire_shortfall_detected():
    env, ledger = _ledger()
    env._notify_transfer("write-begin", op="o#w1", logical_offset=0,
                         logical_bytes=100)
    env._notify_transfer("write-region", op="o#w1", agent=0,
                         region_offset=0, nbytes=100)
    env._notify_transfer("wire-data", op="o#w1", agent=0, index=0,
                         payload_bytes=60)
    env._notify_transfer("write-end", op="o#w1")
    assert any("streamed 60 unique wire" in error for error in ledger.errors)


def test_retransmit_same_size_is_not_double_counted():
    env, ledger = _ledger()
    env._notify_transfer("write-begin", op="o#w1", logical_offset=0,
                         logical_bytes=100)
    env._notify_transfer("write-region", op="o#w1", agent=0,
                         region_offset=0, nbytes=100)
    for _ in range(3):  # original send plus two retransmits
        env._notify_transfer("wire-data", op="o#w1", agent=0, index=0,
                             payload_bytes=100)
    env._notify_transfer("write-end", op="o#w1")
    assert ledger.errors == []


def test_retransmit_with_different_size_is_an_error():
    env, ledger = _ledger()
    env._notify_transfer("write-begin", op="o#w1", logical_offset=0,
                         logical_bytes=100)
    env._notify_transfer("write-region", op="o#w1", agent=0,
                         region_offset=0, nbytes=100)
    env._notify_transfer("wire-data", op="o#w1", agent=0, index=0,
                         payload_bytes=100)
    env._notify_transfer("wire-data", op="o#w1", agent=0, index=0,
                         payload_bytes=99)
    assert any("retransmitted" in error for error in ledger.errors)


def test_read_gap_and_overlap_detected():
    env, ledger = _ledger()
    env._notify_transfer("read-begin", op="o#r1", logical_offset=0,
                         logical_bytes=100)
    env._notify_transfer("read-data", op="o#r1", agent=0,
                         logical_offset=0, nbytes=50)
    env._notify_transfer("read-data", op="o#r1", agent=1,
                         logical_offset=60, nbytes=50)
    env._notify_transfer("read-end", op="o#r1")
    assert any("gap" in error for error in ledger.errors)

    env._notify_transfer("read-begin", op="o#r2", logical_offset=0,
                         logical_bytes=100)
    env._notify_transfer("read-data", op="o#r2", agent=0,
                         logical_offset=0, nbytes=60)
    env._notify_transfer("read-data", op="o#r2", agent=1,
                         logical_offset=40, nbytes=40)
    env._notify_transfer("read-end", op="o#r2")
    assert any("overlap" in error for error in ledger.errors)


def test_event_before_begin_and_unknown_kind():
    env, ledger = _ledger()
    env._notify_transfer("write-region", op="o#w9", agent=0,
                         region_offset=0, nbytes=10)
    env._notify_transfer("no-such-kind", op="o#w9")
    assert any("before its begin" in error for error in ledger.errors)
    assert any("unknown transfer event" in error for error in ledger.errors)


def test_pending_ops_lists_unfinished_transfers():
    env, ledger = _ledger()
    env._notify_transfer("write-begin", op="o#w1", logical_offset=0,
                         logical_bytes=10)
    assert ledger.pending_ops == ["o#w1"]
    assert ledger.errors == []  # unfinished is not (yet) a leak


def test_assert_clean_raises_with_all_violations():
    env, ledger = _ledger()
    ledger.errors = ["a: leak", "b: leak"]
    with pytest.raises(ConservationError, match="2 byte-conservation"):
        ledger.assert_clean()


def test_uninstall_detaches():
    env, ledger = _ledger()
    ledger.uninstall()
    env._notify_transfer("write-begin", op="o#w1", logical_offset=0,
                         logical_bytes=10)
    assert ledger.events_observed == 0
    assert env._transfer_hooks == []
