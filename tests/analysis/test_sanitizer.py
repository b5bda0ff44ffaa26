"""Tests for the runtime invariant sanitizer.

For every invariant family a violation is constructed by corrupting
kernel/ledger state behind the bookkeeping's back, and the test asserts
the sanitizer reports it naming the offending object.  Clean runs (and
the instrumented end-to-end scenario) must stay silent.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    InvariantSanitizer,
    check_compensation,
    check_currency_graph,
    check_run_queue,
    check_ticket_conservation,
    install_autosanitize,
    sanitize_ledger,
    uninstall_autosanitize,
)
from repro.core.tickets import Ledger, TicketHolder
from repro.errors import InvariantViolation
from repro.kernel.syscalls import Compute, YieldCPU
from repro.kernel.thread import ThreadState

from tests.conftest import make_lottery_kernel, spin_body


def yielding_body(compute_ms: float = 20.0):
    def body(ctx):
        while True:
            yield Compute(compute_ms)
            yield YieldCPU()

    return body


# -- clean runs -------------------------------------------------------------


def test_clean_simulation_passes_every_quantum():
    kernel = make_lottery_kernel(seed=7)
    sanitizer = InvariantSanitizer().attach(kernel)
    currency = kernel.ledger.create_currency("task")
    kernel.ledger.create_ticket(300, fund=currency)
    kernel.spawn(spin_body(), "hog", tickets=400)
    kernel.spawn(yielding_body(), "interactive", tickets=200)
    kernel.spawn(spin_body(), "insulated", tickets=600, currency=currency)
    kernel.run_until(20_000.0)
    assert sanitizer.checks_run > 100
    assert sanitizer.violations == []


def test_sanitize_ledger_clean_on_funded_hierarchy(ledger):
    currency = ledger.create_currency("sub")
    ledger.create_ticket(100, fund=currency)
    holder = TicketHolder("client")
    ledger.create_ticket(50, currency=currency, fund=holder)
    holder.start_competing()
    assert sanitize_ledger(ledger) == []


# -- family 1: ticket conservation -----------------------------------------


def test_conservation_detects_tampered_amount():
    kernel = make_lottery_kernel(seed=3)
    thread = kernel.spawn(spin_body(), "victim", tickets=100)
    kernel.spawn(spin_body(), "other", tickets=100)
    kernel.run_until(500.0)
    # Bypass set_amount: the currency's active amount goes stale.
    thread.tickets[0]._amount += 50.0
    messages = "\n".join(check_currency_graph(kernel.ledger)
                         + check_ticket_conservation(kernel.ledger))
    assert "active-amount bookkeeping drifted" in messages
    assert "'base'" in messages


def test_conservation_detects_vanished_holder_ticket():
    ledger = Ledger()
    holder = TicketHolder("leaky")
    ticket = ledger.create_ticket(100, fund=holder)
    holder.start_competing()
    # Drop the back-reference: funding no longer reaches the holder.
    holder.tickets.remove(ticket)
    messages = "\n".join(check_ticket_conservation(ledger))
    assert "missing from its ticket list" in messages
    assert "'leaky'" in messages
    assert "ticket conservation violated" in messages


def test_conservation_detects_activation_mismatch():
    ledger = Ledger()
    holder = TicketHolder("sleeper")
    ledger.create_ticket(100, fund=holder)
    holder.start_competing()
    holder._competing = False  # tickets stay active: mismatch
    messages = "\n".join(check_ticket_conservation(ledger))
    assert "not competing" in messages
    assert "'sleeper'" in messages


# -- family 1, active side: exact funding caches and the walk gate ---------


def _two_level_chain():
    """base -> upper -> lower -> {reader, sibling}; ``other`` sits
    under ``upper`` directly, so flipping it moves ``upper``'s
    per-unit value, and with it everything below."""
    ledger = Ledger()
    upper = ledger.create_currency("upper")
    lower = ledger.create_currency("lower")
    ledger.create_ticket(100, fund=upper)
    ledger.create_ticket(40, currency=upper, fund=lower)
    reader, sibling, other = (TicketHolder(name)
                              for name in ("reader", "sibling", "other"))
    ledger.create_ticket(10, currency=lower, fund=reader)
    ledger.create_ticket(30, currency=lower, fund=sibling)
    ledger.create_ticket(60, currency=upper, fund=other)
    reader.start_competing()
    return ledger, upper, lower, reader, sibling, other


def test_funding_audit_is_clean_and_does_not_mutate():
    ledger, upper, lower, reader, sibling, other = _two_level_chain()
    assert reader.funding() == 100.0
    assert lower._value == 100.0 and upper._value == 100.0  # read through
    sibling.start_competing()      # a walk from lower: reader is stale
    assert reader._funding is None and lower._value is None
    assert upper._value == 100.0
    assert sanitize_ledger(ledger) == []
    # Peeked, not recomputed: nothing cached behind the run.
    assert reader._funding is None and lower._value is None
    assert reader.funding() == 25.0 and lower._value == 100.0
    other.start_competing()        # halves upper's per-unit value
    assert reader.funding() == 10.0
    assert sanitize_ledger(ledger) == []


def test_funding_audit_detects_a_stale_clean_cache():
    ledger, upper, lower, reader, sibling, other = _two_level_chain()
    reader.funding()
    reader._funding += 1.0
    messages = "\n".join(check_ticket_conservation(ledger))
    assert "holder 'reader' cached funding 101.0 != recomputed 100.0" \
        in messages


def test_read_gate_audit_detects_broken_mark_propagation(monkeypatch):
    """A recompute hand-broken not to cache a currency it reads through:
    ``Ticket.base_value`` skipping the denomination when its clamped
    active amount makes the share 0.  The audit names the uncached
    currency before the walk it skips leaves the funding stale."""
    from repro.core.tickets import Ticket

    def skips_a_zero_share(self):
        if not self._active:
            return 0.0
        currency = self.currency
        if currency.is_base:
            return self._amount
        if currency._active_amount <= 0:
            return 0.0
        return currency.base_value() * (self._amount
                                         / currency._active_amount)

    monkeypatch.setattr(Ticket, "base_value", skips_a_zero_share)
    ledger = Ledger()
    clamped = ledger.create_currency("clamped")
    ledger.create_ticket(100, fund=clamped)
    dust, heavy = TicketHolder("dust"), TicketHolder("heavy")
    ledger.create_ticket(5e-10, currency=clamped, fund=dust)
    ledger.create_ticket(10, currency=clamped, fund=heavy)
    dust.start_competing()         # 5e-10 clamps to an active amount of 0
    assert dust.funding() == 0.0
    messages = "\n".join(check_ticket_conservation(ledger))
    assert "holder 'dust' caches a funding read through currency " \
        "'clamped', whose value is not cached" in messages
    # What the audit warned of: activating ``heavy`` crosses zero at an
    # uncached currency, walks nowhere, and the cache goes stale.
    heavy.start_competing()
    messages = "\n".join(check_ticket_conservation(ledger))
    assert "holder 'dust' cached funding 0.0 != recomputed" in messages


def test_read_gate_audit_detects_broken_clear_on_visit(monkeypatch):
    """A walk hand-broken to clear only the currency it starts at: the
    currencies it descends through keep their values, now stale, with
    an uncached one above them."""
    from repro.core.tickets import Currency

    walk = Currency._invalidate_downstream

    def clears_only_its_start(self, nominal=False):
        kept = {c: c._value for c in self._ledger.currencies()}
        walk(self, nominal)
        for currency, value in kept.items():
            if currency is not self:
                currency._value = value

    monkeypatch.setattr(Currency, "_invalidate_downstream",
                        clears_only_its_start)
    ledger, upper, lower, reader, sibling, other = _two_level_chain()
    reader.funding()
    other.start_competing()        # walk from upper visits lower
    assert lower._value == 100.0 and upper._value is None
    messages = "\n".join(check_ticket_conservation(ledger))
    assert "currency 'lower' cached base value 100.0 != recomputed 40.0" \
        in messages
    assert "currency 'lower' caches a base value read through currency " \
        "'upper', whose value is not cached" in messages


@pytest.mark.parametrize("dropped, reads_it", [
    ("upper", "currency 'lower' caches a nominal value"),
    ("lower", "holder 'reader' caches a nominal funding"),
], ids=["currency", "holder"])
def test_nominal_audit_peeks_and_detects_a_dropped_mark(dropped, reads_it):
    """The nominal walk gate: a cached nominal value is audited without
    being read (an unread chain stays uncached), and one read through a
    currency whose own nominal value was dropped behind its back is
    reported before the skipped walk it leads to makes it stale."""
    ledger, upper, lower, reader, sibling, other = _two_level_chain()
    assert sanitize_ledger(ledger) == []
    assert upper._nominal_value is None and lower._nominal_value is None
    assert reader.nominal_funding() == 10.0
    assert upper._nominal_value == 100.0 and lower._nominal_value == 40.0
    assert sanitize_ledger(ledger) == []
    ledger.currency(dropped)._nominal_value = None
    messages = "\n".join(check_ticket_conservation(ledger))
    assert f"{reads_it} read through currency {dropped!r}, whose " \
        "nominal value is not cached" in messages
    ledger.create_ticket(100, currency=upper)  # upper's issue doubles
    messages = "\n".join(check_ticket_conservation(ledger))
    if dropped == "upper":  # lower's own value went stale with it
        assert "currency 'lower' cached nominal value 40.0 != recomputed " \
            "20.0" in messages
    assert "holder 'reader' cached nominal funding 10.0 != recomputed " \
        "5.0" in messages


# -- family 2: currency graph ----------------------------------------------


def test_graph_detects_forced_cycle(ledger):
    alpha = ledger.create_currency("alpha")
    beta = ledger.create_currency("beta")
    ledger.create_ticket(10, currency=alpha, fund=beta)
    # Force the edge the Ledger's guard would reject: beta -> alpha.
    rogue = ledger.create_ticket(10, currency=beta)
    alpha._backing.append(rogue)
    rogue.target = alpha
    messages = "\n".join(check_currency_graph(ledger))
    assert "cycle" in messages
    assert "alpha" in messages or "beta" in messages


def test_graph_detects_active_amount_corruption():
    kernel = make_lottery_kernel(seed=5)
    currency = kernel.ledger.create_currency("skewed")
    kernel.ledger.create_ticket(100, fund=currency)
    kernel.spawn(spin_body(), "funded", tickets=50, currency=currency)
    kernel.run_until(300.0)
    currency._active_amount += 1.0
    messages = "\n".join(check_currency_graph(kernel.ledger))
    assert "'skewed'" in messages
    assert "bookkeeping drifted" in messages


def test_graph_detects_backing_activation_mismatch(ledger):
    currency = ledger.create_currency("idle")
    backing = ledger.create_ticket(100, fund=currency)
    # No active issue, yet the backing ticket claims to be active.
    backing._active = True
    ledger.base._active_amount = 100.0
    messages = "\n".join(check_currency_graph(ledger))
    assert "backing ticket" in messages
    assert "'idle'" in messages


# -- family 3: run-queue membership ----------------------------------------


def _runnable_thread(kernel):
    for thread in kernel.threads:
        if thread.state is ThreadState.RUNNABLE:
            return thread
    raise AssertionError("expected a runnable thread")


def test_run_queue_detects_blocked_thread_on_queue():
    kernel = make_lottery_kernel(seed=11)
    kernel.spawn(spin_body(), "a", tickets=100)
    kernel.spawn(spin_body(), "b", tickets=100)
    kernel.run_until(250.0)
    victim = _runnable_thread(kernel)
    victim.state = ThreadState.BLOCKED  # still on the run queue
    messages = "\n".join(check_run_queue(kernel))
    assert victim.name in messages
    assert "blocked and runnable" in messages


def test_run_queue_detects_missing_runnable_thread():
    kernel = make_lottery_kernel(seed=11)
    kernel.spawn(spin_body(), "a", tickets=100)
    kernel.spawn(spin_body(), "b", tickets=100)
    kernel.run_until(250.0)
    victim = _runnable_thread(kernel)
    kernel.policy.dequeue(victim)  # state still claims RUNNABLE
    messages = "\n".join(check_run_queue(kernel))
    assert f"thread {victim.name!r} is runnable but absent" in messages


def test_run_queue_detects_ticket_deactivation_mismatch():
    kernel = make_lottery_kernel(seed=11)
    kernel.spawn(spin_body(), "a", tickets=100)
    kernel.spawn(spin_body(), "b", tickets=100)
    kernel.run_until(250.0)
    victim = _runnable_thread(kernel)
    victim.stop_competing()  # queued, but tickets now inactive
    messages = "\n".join(check_run_queue(kernel))
    assert "deactivated tickets" in messages
    assert victim.name in messages


def _tree_kernel():
    kernel = make_lottery_kernel(seed=11, use_tree=True)
    for index in range(6):
        kernel.spawn(spin_body(), f"t{index}", tickets=100.0 * (index + 1))
    kernel.run_until(250.0)
    assert check_run_queue(kernel) == []
    return kernel


def test_run_queue_detects_wrong_fenwick_node():
    kernel = _tree_kernel()
    kernel.policy._tree._tree[4] += 1.0
    messages = "\n".join(check_run_queue(kernel))
    assert "lottery tree: Fenwick node 4 holds" in messages


def test_run_queue_detects_queued_thread_without_a_tree_slot():
    kernel = _tree_kernel()
    victim = _runnable_thread(kernel)
    kernel.policy._tree.remove(victim)  # still a member of the queue
    messages = "\n".join(check_run_queue(kernel))
    assert f"thread {victim.name!r} is on the run queue but holds no slot" \
        in messages


def test_run_queue_detects_stale_stored_tree_value():
    kernel = _tree_kernel()
    victim = _runnable_thread(kernel)
    victim.tickets[0].set_amount(999.0)
    assert check_run_queue(kernel) == []  # flagged for revaluation: fine
    kernel.policy._dirty.clear()  # the flag is lost, the stored value stale
    messages = "\n".join(check_run_queue(kernel))
    assert f"thread {victim.name!r} stores" in messages
    assert "not flagged for revaluation" in messages


# -- family 4: compensation-ticket lifetime --------------------------------


def test_compensation_detects_duplicate_grants():
    kernel = make_lottery_kernel(seed=13)
    thread = kernel.spawn(yielding_body(), "bursty", tickets=100)
    kernel.spawn(spin_body(), "hog", tickets=100)
    manager = kernel.policy.compensation
    manager.on_quantum_end(thread, used=20.0, quantum=100.0)
    assert manager.outstanding() == 1
    # A second "compensation" ticket for the same holder is illegal.
    kernel.ledger.create_ticket(10, fund=thread, tag="compensation")
    messages = "\n".join(check_compensation(kernel))
    assert "'bursty'" in messages
    assert "2 compensation tickets" in messages


def test_compensation_detects_grant_outliving_thread():
    kernel = make_lottery_kernel(seed=13)
    thread = kernel.spawn(yielding_body(), "doomed", tickets=100,
                          start=False)
    manager = kernel.policy.compensation
    manager.on_quantum_end(thread, used=20.0, quantum=100.0)
    thread.transition(ThreadState.EXITED)  # without the manager noticing
    messages = "\n".join(check_compensation(kernel))
    assert "'doomed'" in messages
    assert "still holds a compensation ticket" in messages


def test_compensation_clean_during_instrumented_run():
    kernel = make_lottery_kernel(seed=13)
    InvariantSanitizer().attach(kernel)
    kernel.spawn(yielding_body(), "bursty", tickets=100)
    kernel.spawn(spin_body(), "hog", tickets=300)
    kernel.run_until(10_000.0)  # raises on any violation
    assert kernel.policy.compensation.grants_issued > 0


# -- sanitizer object & wiring ---------------------------------------------


def test_check_raises_invariant_violation_with_offender_named():
    kernel = make_lottery_kernel(seed=17)
    kernel.spawn(spin_body(), "culprit", tickets=100)
    kernel.spawn(spin_body(), "bystander", tickets=100)
    kernel.run_until(150.0)
    # The running thread's tickets are inactive; corrupt a queued one.
    _runnable_thread(kernel).tickets[0]._amount += 5.0
    sanitizer = InvariantSanitizer().attach(kernel)
    with pytest.raises(InvariantViolation, match="bookkeeping drifted"):
        sanitizer.check(kernel)
    assert sanitizer.violations


def test_collect_mode_accumulates_instead_of_raising():
    kernel = make_lottery_kernel(seed=17)
    kernel.spawn(spin_body(), "culprit", tickets=100)
    kernel.spawn(spin_body(), "bystander", tickets=100)
    kernel.run_until(150.0)
    _runnable_thread(kernel).tickets[0]._amount += 5.0
    sanitizer = InvariantSanitizer(raise_on_violation=False)
    found = sanitizer.check(kernel)
    assert found and sanitizer.violations == found


def test_stride_skips_intermediate_quanta():
    kernel = make_lottery_kernel(seed=19)
    sanitizer = InvariantSanitizer(stride=10).attach(kernel)
    kernel.spawn(spin_body(), "a", tickets=100)
    kernel.spawn(spin_body(), "b", tickets=100)
    kernel.run_until(5_000.0)
    assert sanitizer.quanta_seen >= 40
    assert sanitizer.checks_run == sanitizer.quanta_seen // 10


def test_install_autosanitize_instruments_new_kernels():
    install_autosanitize()
    try:
        kernel = make_lottery_kernel(seed=23)
        baseline = len(kernel.invariant_hooks)
        assert baseline >= 1
    finally:
        uninstall_autosanitize()
    kernel = make_lottery_kernel(seed=23)
    # REPRO_SANITIZE may have installed a process-wide hook already;
    # uninstalling ours must not have removed it.
    assert len(kernel.invariant_hooks) == baseline - 1 or \
        len(kernel.invariant_hooks) == 0
