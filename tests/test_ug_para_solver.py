"""Unit tests for the ParaSolver state machine (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.cip.params import ParamSet
from repro.ug.messages import Message, MessageTag
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.ug.para_solver import ParaSolver
from repro.ug.user_plugins import HandleStep, SolverHandle, UserPlugins


class ScriptedHandle(SolverHandle):
    """A base-solver stub that follows a scripted sequence of steps."""

    def __init__(self, script: list[HandleStep]):
        self.script = list(script)
        self.injected: list[float] = []
        self.extracted = 0

    def step(self) -> HandleStep:
        return self.script.pop(0)

    def extract_para_node(self):
        self.extracted += 1
        return ParaNode({"k": self.extracted}, dual_bound=1.0, depth=1)

    def inject_incumbent_value(self, value: float) -> None:
        self.injected.append(value)


class ScriptedPlugins(UserPlugins):
    base_solver_name = "Scripted"

    def __init__(self, script):
        self.script = script
        self.created = 0

    def create_handle(self, instance, node, params, seed, incumbent):
        self.created += 1
        return ScriptedHandle(self.script)


def make_solver(script, **kwargs) -> tuple[ParaSolver, list]:
    plugins = ScriptedPlugins(script)
    solver = ParaSolver(1, "instance", plugins, ParamSet(), seed=0, **kwargs)
    sent: list[tuple[int, MessageTag, object]] = []
    return solver, sent


def send_collector(sent):
    def send(dst, tag, payload):
        sent.append((dst, tag, payload))

    return send


def subproblem_msg(payload_extra=None) -> Message:
    payload = {"node": ParaNode({}), "incumbent": None, "settings": None}
    payload.update(payload_extra or {})
    return Message(tag=MessageTag.SUBPROBLEM, src=0, dst=1, payload=payload)


class TestParaSolver:
    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            ParaSolver(0, None, ScriptedPlugins([]), ParamSet(), 0)

    def test_idle_does_no_work(self):
        solver, sent = make_solver([])
        assert solver.do_work(send_collector(sent)) is None

    def test_finishing_step_sends_terminated(self):
        script = [HandleStep(True, 0.01, 5.0, 0, [], 1)]
        solver, sent = make_solver(script)
        send = send_collector(sent)
        solver.handle_message(subproblem_msg(), send)
        assert solver.is_busy
        solver.do_work(send)
        tags = [t for _d, t, _p in sent]
        assert MessageTag.TERMINATED in tags
        assert solver.state == "idle"

    def test_solution_reported_once(self):
        sol = ParaSolution(3.0, None)
        script = [
            HandleStep(False, 0.01, 1.0, 2, [sol], 1),
            HandleStep(False, 0.01, 1.0, 2, [ParaSolution(3.0)], 1),  # not better
            HandleStep(True, 0.01, 3.0, 0, [], 1),
        ]
        solver, sent = make_solver(script)
        send = send_collector(sent)
        solver.handle_message(subproblem_msg(), send)
        while solver.is_busy:
            solver.do_work(send)
        found = [p for _d, t, p in sent if t is MessageTag.SOLUTION_FOUND]
        assert len(found) == 1

    def test_first_step_reports_root_work(self):
        script = [HandleStep(False, 0.02, 1.0, 2, [], 1), HandleStep(True, 0.01, 1.0, 0, [], 1)]
        solver, sent = make_solver(script)
        send = send_collector(sent)
        solver.handle_message(subproblem_msg(), send)
        solver.do_work(send)
        statuses = [p for _d, t, p in sent if t is MessageTag.STATUS]
        assert statuses and "first_step_work" in statuses[0]

    def test_collect_mode_sheds_nodes(self):
        script = [HandleStep(False, 0.01, 1.0, 10, [], 1) for _ in range(3)] + [
            HandleStep(True, 0.01, 1.0, 0, [], 1)
        ]
        solver, sent = make_solver(script, min_open_to_shed=4)
        send = send_collector(sent)
        solver.handle_message(subproblem_msg(), send)
        solver.handle_message(Message(tag=MessageTag.START_COLLECTING, src=0, dst=1), send)
        solver.do_work(send)
        transfers = [p for _d, t, p in sent if t is MessageTag.NODE_TRANSFER]
        assert transfers

    def test_stop_collecting(self):
        script = [HandleStep(False, 0.01, 1.0, 10, [], 1), HandleStep(True, 0.01, 1.0, 0, [], 1)]
        solver, sent = make_solver(script)
        send = send_collector(sent)
        solver.handle_message(subproblem_msg(), send)
        solver.handle_message(Message(tag=MessageTag.START_COLLECTING, src=0, dst=1), send)
        solver.handle_message(Message(tag=MessageTag.STOP_COLLECTING, src=0, dst=1), send)
        solver.do_work(send)
        transfers = [p for _d, t, p in sent if t is MessageTag.NODE_TRANSFER]
        assert not transfers

    def test_incumbent_injected(self):
        script = [HandleStep(True, 0.01, 1.0, 0, [], 1)]
        solver, sent = make_solver(script)
        send = send_collector(sent)
        solver.handle_message(subproblem_msg(), send)
        solver.handle_message(
            Message(tag=MessageTag.INCUMBENT, src=0, dst=1, payload={"value": 7.0}), send
        )
        assert solver.handle.injected == [7.0]
        # a worse value is ignored
        solver.handle_message(
            Message(tag=MessageTag.INCUMBENT, src=0, dst=1, payload={"value": 9.0}), send
        )
        assert solver.handle.injected == [7.0]

    def test_racing_loser_goes_idle(self):
        script = [HandleStep(False, 0.01, 1.0, 3, [], 1)]
        solver, sent = make_solver(script)
        send = send_collector(sent)
        msg = Message(
            tag=MessageTag.RACING_START,
            src=0,
            dst=1,
            payload={"node": ParaNode({}), "settings": ParamSet(), "incumbent": None},
        )
        solver.handle_message(msg, send)
        assert solver.state == "racing"
        solver.handle_message(Message(tag=MessageTag.RACING_LOSER, src=0, dst=1), send)
        assert solver.state == "idle"
        assert solver.handle is None
        tags = [t for _d, t, _p in sent]
        assert MessageTag.TERMINATED in tags

    def test_racing_winner_starts_collecting(self):
        script = [HandleStep(False, 0.01, 1.0, 10, [], 1), HandleStep(True, 0.01, 1.0, 0, [], 1)]
        solver, sent = make_solver(script, min_open_to_shed=2)
        send = send_collector(sent)
        msg = Message(
            tag=MessageTag.RACING_START,
            src=0,
            dst=1,
            payload={"node": ParaNode({}), "settings": ParamSet(), "incumbent": None},
        )
        solver.handle_message(msg, send)
        solver.handle_message(Message(tag=MessageTag.RACING_WINNER, src=0, dst=1), send)
        assert solver.state == "working"
        assert solver.collect_mode
        solver.do_work(send)
        transfers = [p for _d, t, p in sent if t is MessageTag.NODE_TRANSFER]
        assert transfers

    def test_termination(self):
        solver, sent = make_solver([])
        solver.handle_message(Message(tag=MessageTag.TERMINATION, src=0, dst=1), send_collector(sent))
        assert solver.state == "terminated"

    def test_lineage_stamped_on_transfers(self):
        script = [HandleStep(False, 0.01, 1.0, 10, [], 1), HandleStep(True, 0.01, 1.0, 0, [], 1)]
        solver, sent = make_solver(script, min_open_to_shed=2)
        send = send_collector(sent)
        node = ParaNode({}, lc_id=42, lineage=(7,))
        msg = Message(tag=MessageTag.SUBPROBLEM, src=0, dst=1,
                      payload={"node": node, "incumbent": None, "settings": None})
        solver.handle_message(msg, send)
        solver.handle_message(Message(tag=MessageTag.START_COLLECTING, src=0, dst=1), send)
        solver.do_work(send)
        transfer = next(p for _d, t, p in sent if t is MessageTag.NODE_TRANSFER)
        assert transfer["node"].lineage == (7, 42)
