"""Protocol checker: clean on the real sources, loud on broken ones."""

from pathlib import Path

from repro.check.lint import parse_file, parse_files
from repro.check.protocol import (
    AGENT_SOURCE,
    VOCABULARY_SOURCE,
    extract_side,
    extract_vocabulary,
)
from repro.check.protocol import _check_machine, check_protocol
from repro.check.spec import (
    EXCHANGES,
    MACHINES,
    StateMachine,
    Transition,
    spec_message_names,
)

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _protocol_findings(root: Path):
    return check_protocol(root, parse_files([root]))


def _write_synthetic_tree(root: Path, *, drop_receive=None,
                          drop_timeout_guard=None, extra_agent_send=None):
    """A minimal implementation tree satisfying the spec, optionally
    broken in one precise way."""
    core = root / "core"
    core.mkdir(parents=True)
    names = sorted(spec_message_names())
    vocabulary = names + ([extra_agent_send] if extra_agent_send else [])
    (core / "agent_protocol.py").write_text(
        "\n".join(f"class {name}:\n    pass\n" for name in vocabulary))

    requests = [e.request for e in EXCHANGES]
    replies = sorted({r for e in EXCHANGES for r in e.replies})
    agent_receives = [r for r in requests if r != drop_receive]
    agent_sends = replies + ([extra_agent_send] if extra_agent_send else [])
    agent_lines = ["def serve(message):"]
    for name in agent_receives:
        agent_lines.append(f"    if isinstance(message, {name}):")
        agent_lines.append("        pass")
    agent_lines.append("def reply_all():")
    for name in agent_sends:
        agent_lines.append(f"    yield {name}()")
    (core / "storage_agent.py").write_text("\n".join(agent_lines) + "\n")

    client_lines = ["def drive(socket):"]
    for name in requests:
        client_lines.append(f"    socket.send({name}())")
    for name in replies:
        if name == drop_timeout_guard:
            # Awaited, but with a bare (unguarded) receive.
            client_lines.append(
                f"    check = isinstance(socket.message, {name})")
        else:
            client_lines.append(
                "    socket.recv_wait(0.5, predicate=lambda d: "
                f"isinstance(d.message, {name}))")
    (core / "distribution.py").write_text("\n".join(client_lines) + "\n")


def test_real_sources_satisfy_the_spec():
    assert _protocol_findings(PACKAGE_ROOT) == []


def test_extraction_sees_both_sides():
    vocabulary = frozenset(
        extract_vocabulary(parse_file(PACKAGE_ROOT / VOCABULARY_SOURCE).tree))
    agent = extract_side([parse_file(PACKAGE_ROOT / AGENT_SOURCE).tree],
                         vocabulary)
    assert "WriteRequest" in agent.receives
    assert "WriteNak" in agent.sends and "WriteAck" in agent.sends


def test_synthetic_complete_tree_is_clean(tmp_path):
    _write_synthetic_tree(tmp_path)
    assert _protocol_findings(tmp_path) == []


def test_missing_receive_arm_is_an_illegal_transition(tmp_path):
    _write_synthetic_tree(tmp_path, drop_receive="WriteData")
    findings = _protocol_findings(tmp_path)
    assert any(
        f.rule_id == "protocol-transition"
        and "WriteData" in f.message
        and "no matching receive" in f.message
        for f in findings), [f.message for f in findings]


def test_unguarded_reply_wait_is_flagged(tmp_path):
    _write_synthetic_tree(tmp_path, drop_timeout_guard="WriteAck")
    findings = _protocol_findings(tmp_path)
    assert any(f.rule_id == "protocol-timeout" and "WriteAck" in f.message
               for f in findings), [f.message for f in findings]


def test_undeclared_agent_message_is_flagged(tmp_path):
    _write_synthetic_tree(tmp_path, extra_agent_send="RogueReply")
    findings = _protocol_findings(tmp_path)
    assert any(f.rule_id == "protocol-transition"
               and "RogueReply" in f.message for f in findings)
    # The rogue class is also undocumented vocabulary.
    assert any(f.rule_id == "protocol-spec" and "RogueReply" in f.message
               for f in findings)


def test_machines_are_sound():
    spec_path = Path("spec.py")
    for machine in MACHINES:
        assert _check_machine(machine, spec_path) == [], machine.name


def test_machines_cover_both_sides_of_every_exchange():
    from repro.check.spec import MACHINE_PAIRS, machine_by_name
    client_names = {name for name, _ in MACHINE_PAIRS}
    agent_names = {name for _, name in MACHINE_PAIRS}
    for client_name, agent_name in MACHINE_PAIRS:
        assert machine_by_name(client_name).side == "client"
        assert machine_by_name(agent_name).side == "agent"
    for exchange in EXCHANGES:
        senders = [m for m in MACHINES if m.side == "client" and any(
            t.event == f"send {exchange.request}" for t in m.transitions)]
        assert senders, f"no client machine sends {exchange.request}"
        assert any(m.name in client_names for m in senders)
        receivers = [m for m in MACHINES if m.side == "agent" and any(
            t.event == f"recv {exchange.request}" for t in m.transitions)]
        assert receivers, f"no agent machine receives {exchange.request}"
        assert any(m.name in agent_names for m in receivers)


def test_servers_may_await_requests_without_timeout_edges():
    # The timeout-edge requirement is reply-aware: a listen state that
    # awaits a *request* forever is sound.
    machine = StateMachine(
        name="srv", initial="LISTEN", terminals=frozenset({"LISTEN"}),
        transitions=(Transition("LISTEN", "recv StatRequest", "BUSY"),
                     Transition("BUSY", "send StatReply", "LISTEN")),
        side="agent")
    assert _check_machine(machine, Path("spec.py")) == []


def test_missing_receive_arm_is_also_a_conformance_gap(tmp_path):
    _write_synthetic_tree(tmp_path, drop_receive="WriteData")
    findings = _protocol_findings(tmp_path)
    assert any(
        f.rule_id == "protocol-conformance"
        and "recv WriteData" in f.message
        for f in findings), [f.message for f in findings]


def test_undeclared_send_is_a_conformance_gap(tmp_path):
    _write_synthetic_tree(tmp_path, extra_agent_send="WriteData")
    # WriteData is spec vocabulary, so the vocabulary pass stays quiet —
    # but no *agent* machine has a `send WriteData` edge.
    findings = _protocol_findings(tmp_path)
    assert any(
        f.rule_id == "protocol-conformance"
        and "agent code sends WriteData" in f.message
        for f in findings), [f.message for f in findings]


def test_machine_checker_catches_unreachable_state():
    machine = StateMachine(
        name="bad", initial="A", terminals=frozenset({"B"}),
        transitions=(Transition("A", "send WriteRequest", "B"),
                     Transition("C", "timeout", "B")))
    findings = _check_machine(machine, Path("spec.py"))
    assert any("unreachable" in f.message for f in findings)


def test_machine_checker_catches_missing_timeout_edge():
    machine = StateMachine(
        name="bad", initial="A", terminals=frozenset({"B"}),
        transitions=(Transition("A", "recv WriteAck", "B"),))
    findings = _check_machine(machine, Path("spec.py"))
    assert any("no timeout edge" in f.message for f in findings)


def test_machine_checker_catches_trap_state():
    machine = StateMachine(
        name="bad", initial="A", terminals=frozenset({"B"}),
        transitions=(Transition("A", "send WriteRequest", "B"),
                     Transition("A", "timeout", "C"),
                     Transition("C", "timeout", "C")))
    findings = _check_machine(machine, Path("spec.py"))
    assert any("cannot reach a terminal" in f.message for f in findings)
