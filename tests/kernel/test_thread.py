"""Tests for Thread/Task state machines and generator stepping."""

import pytest

from repro.errors import ThreadStateError
from repro.kernel.syscalls import Compute
from repro.kernel.thread import Task, Thread, ThreadState
from tests.conftest import make_lottery_kernel


def make_thread(kernel, body=None, name="t"):
    task = kernel.create_task(f"task-{name}")
    if body is None:
        def body(ctx):
            yield Compute(1.0)
    return Thread(name, task, body, kernel)


class TestLifecycle:
    def test_created_state(self):
        kernel = make_lottery_kernel()
        thread = make_thread(kernel)
        assert thread.state is ThreadState.CREATED
        assert thread.alive

    def test_valid_transitions(self):
        kernel = make_lottery_kernel()
        thread = make_thread(kernel)
        thread.transition(ThreadState.RUNNABLE)
        thread.transition(ThreadState.RUNNING)
        thread.transition(ThreadState.BLOCKED)
        thread.transition(ThreadState.RUNNABLE)
        thread.transition(ThreadState.RUNNING)
        thread.transition(ThreadState.EXITED)
        assert not thread.alive

    @pytest.mark.parametrize(
        "sequence",
        [
            [ThreadState.RUNNING],  # created -> running skips runnable
            [ThreadState.BLOCKED],
            [ThreadState.RUNNABLE, ThreadState.BLOCKED],
        ],
    )
    def test_invalid_transitions_rejected(self, sequence):
        kernel = make_lottery_kernel()
        thread = make_thread(kernel)
        with pytest.raises(ThreadStateError):
            for state in sequence:
                thread.transition(state)

    def test_exited_is_terminal(self):
        kernel = make_lottery_kernel()
        thread = make_thread(kernel)
        thread.transition(ThreadState.EXITED)
        with pytest.raises(ThreadStateError):
            thread.transition(ThreadState.RUNNABLE)

    #: The nine legal edges; every other (state, new_state) pair of the
    #: twenty-five is refused.
    LEGAL = {
        ("created", "runnable"), ("created", "exited"),
        ("runnable", "running"), ("runnable", "exited"),
        ("running", "runnable"), ("running", "blocked"),
        ("running", "exited"),
        ("blocked", "runnable"), ("blocked", "exited"),
    }

    @pytest.mark.parametrize("new_state", list(ThreadState))
    @pytest.mark.parametrize("state", list(ThreadState))
    def test_every_state_pair(self, state, new_state):
        kernel = make_lottery_kernel()
        thread = make_thread(kernel, name="pair")
        thread.state = state
        if (state.value, new_state.value) in self.LEGAL:
            thread.transition(new_state)
            assert thread.state is new_state
        else:
            with pytest.raises(ThreadStateError) as caught:
                thread.transition(new_state)
            assert str(caught.value) == (
                f"thread 'pair': illegal transition "
                f"{state.value} -> {new_state.value}")
            assert thread.state is state

    def test_legal_edge_table_is_read_only(self):
        from repro.kernel.thread import _LEGAL_TRANSITIONS

        # Keyed by the state's string value, rules as tuples.
        assert set(_LEGAL_TRANSITIONS) == {s.value for s in ThreadState}
        with pytest.raises(TypeError):
            _LEGAL_TRANSITIONS["exited"] = tuple(ThreadState)
        with pytest.raises(AttributeError):
            _LEGAL_TRANSITIONS["exited"].add(ThreadState.RUNNABLE)

    def test_unique_tids(self):
        kernel = make_lottery_kernel()
        a = make_thread(kernel, name="a")
        b = make_thread(kernel, name="b")
        assert a.tid != b.tid


class TestGeneratorStepping:
    def test_advance_yields_syscalls_then_none(self):
        kernel = make_lottery_kernel()

        def body(ctx):
            yield Compute(1.0)
            yield Compute(2.0)

        thread = make_thread(kernel, body)
        first = thread.advance()
        assert isinstance(first, Compute) and first.duration == 1.0
        second = thread.advance()
        assert second.duration == 2.0
        assert thread.advance() is None

    def test_deliver_feeds_send_value(self):
        kernel = make_lottery_kernel()
        received = []

        def body(ctx):
            value = yield Compute(1.0)
            received.append(value)

        thread = make_thread(kernel, body)
        thread.advance()
        thread.deliver("reply!")
        thread.advance()
        assert received == ["reply!"]

    def test_advance_after_exit_rejected(self):
        kernel = make_lottery_kernel()
        thread = make_thread(kernel)
        thread.transition(ThreadState.EXITED)
        with pytest.raises(ThreadStateError):
            thread.advance()

    def test_context_exposes_clock_and_identity(self):
        kernel = make_lottery_kernel()
        seen = {}

        def body(ctx):
            seen["thread"] = ctx.thread
            seen["now"] = ctx.now
            yield Compute(1.0)

        thread = make_thread(kernel, body)
        thread.advance()
        assert seen["thread"] is thread
        assert seen["now"] == 0.0


class TestFunding:
    def test_fund_from_base_without_task_currency(self):
        kernel = make_lottery_kernel()
        thread = make_thread(kernel)
        ticket = thread.fund_from(kernel.ledger, 250)
        assert ticket.currency is kernel.ledger.base
        assert thread.funding_currency is kernel.ledger.base

    def test_fund_from_task_currency(self):
        kernel = make_lottery_kernel()
        currency = kernel.ledger.create_currency("group")
        task = Task("grouped", currency)

        def body(ctx):
            yield Compute(1.0)

        thread = Thread("t", task, body, kernel)
        ticket = thread.fund_from(kernel.ledger, 100)
        assert ticket.currency is currency
        assert thread.funding_currency is currency

    def test_task_tracks_threads(self):
        kernel = make_lottery_kernel()
        task = kernel.create_task("t")

        def body(ctx):
            yield Compute(1.0)

        threads = [Thread(f"t{i}", task, body, kernel) for i in range(3)]
        assert task.threads == threads
