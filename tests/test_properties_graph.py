"""Property-based tests over randomly generated currency graphs.

Hypothesis builds random acyclic funding graphs (layered DAGs of
currencies with random ticket amounts and random active/inactive
leaves) and checks the global valuation laws: conservation from base to
leaves, cycle rejection for every back edge, and insulation (mutating
one subtree never changes a disjoint subtree's value).
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.analysis.sanitizer import sanitize_ledger
from repro.core.tickets import Ledger, TicketHolder
from repro.errors import CurrencyCycleError
from repro.oracle_ref import fresh_valuation

amounts = st.floats(min_value=1.0, max_value=1000.0, allow_nan=False)

# A layered DAG spec: layer sizes plus per-edge amounts chosen by data.
layer_sizes = st.lists(st.integers(min_value=1, max_value=3),
                       min_size=1, max_size=3)


def build_layered_graph(ledger, sizes, data):
    """Base -> layer0 -> layer1 -> ... -> holders; returns (layers, holders)."""
    layers = []
    previous = [None]  # None denotes base
    for depth, width in enumerate(sizes):
        layer = []
        for index in range(width):
            currency = ledger.create_currency(f"L{depth}C{index}")
            # Fund from 1..len(previous) random parents.
            parent_count = data.draw(
                st.integers(min_value=1, max_value=len(previous))
            )
            for p in range(parent_count):
                parent = previous[(index + p) % len(previous)]
                amount = data.draw(amounts)
                if parent is None:
                    ledger.create_ticket(amount, fund=currency)
                else:
                    ledger.create_ticket(amount, currency=parent,
                                         fund=currency)
            layer.append(currency)
        layers.append(layer)
        previous = layer
    holders = []
    for index, currency in enumerate(layers[-1]):
        for h in range(data.draw(st.integers(min_value=1, max_value=2))):
            holder = TicketHolder(f"h{index}.{h}")
            ledger.create_ticket(data.draw(amounts), currency=currency,
                                 fund=holder)
            holders.append(holder)
    return layers, holders


class TestRandomGraphs:
    @given(layer_sizes, st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_conservation_base_to_leaves(self, sizes, data):
        """With every holder active, total holder funding equals the
        total base issue that is transitively consumed."""
        ledger = Ledger()
        _, holders = build_layered_graph(ledger, sizes, data)
        for holder in holders:
            holder.start_competing()
        total_funding = sum(h.funding() for h in holders)
        # Every base ticket funds a currency that (transitively) has
        # active consumers, so all base issue is active and delivered.
        assert math.isclose(total_funding, ledger.base.active_amount,
                            rel_tol=1e-6)
        assert ledger.base.active_amount > 0

    @given(layer_sizes, st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_back_edge_rejected(self, sizes, data):
        """Funding any ancestor with a descendant's tickets must raise."""
        ledger = Ledger()
        layers, holders = build_layered_graph(ledger, sizes, data)
        for holder in holders:
            holder.start_competing()
        if len(layers) < 2:
            return
        descendant = layers[-1][0]
        ancestor = layers[0][0]
        back_edge = ledger.create_ticket(10.0, currency=descendant)
        with pytest.raises(CurrencyCycleError):
            back_edge.fund(ancestor)

    @given(st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_disjoint_subtree_insulation(self, data):
        """Arbitrary inflation inside subtree B never changes subtree
        A's delivered value (the Figure 9 property, generalized)."""
        ledger = Ledger()
        values = {}
        holders = {}
        for side in ("A", "B"):
            currency = ledger.create_currency(side)
            ledger.create_ticket(data.draw(amounts), fund=currency)
            side_holders = []
            for index in range(data.draw(st.integers(1, 3))):
                holder = TicketHolder(f"{side}{index}")
                ledger.create_ticket(data.draw(amounts),
                                     currency=currency, fund=holder)
                holder.start_competing()
                side_holders.append(holder)
            holders[side] = side_holders
            values[side] = sum(h.funding() for h in side_holders)
        # Random mutations inside B only.
        b_currency = ledger.currency("B")
        for _ in range(data.draw(st.integers(1, 4))):
            action = data.draw(st.sampled_from(["inflate", "join", "leave"]))
            if action == "inflate":
                target = holders["B"][
                    data.draw(st.integers(0, len(holders["B"]) - 1))
                ]
                target.tickets[0].set_amount(data.draw(amounts))
            elif action == "join":
                newcomer = TicketHolder("Bnew")
                ledger.create_ticket(data.draw(amounts),
                                     currency=b_currency, fund=newcomer)
                newcomer.start_competing()
                holders["B"].append(newcomer)
            else:
                victim = holders["B"][
                    data.draw(st.integers(0, len(holders["B"]) - 1))
                ]
                victim.stop_competing()
        # A's delivered value is untouched if anyone in B still competes;
        # in every case each individual A holder's value follows only A.
        a_total = sum(h.funding() for h in holders["A"])
        assert math.isclose(a_total, values["A"], rel_tol=1e-6)


ACTIONS = ("create", "destroy", "set_amount", "unfund", "fund",
           "retarget", "start", "stop")


def build_mutable_graph(sizes, data):
    """A layered graph plus ``mutate()``, which draws and applies one of
    the eight :data:`ACTIONS` (structural mutations and activation
    flips) through the public API, keeping the graph acyclic."""
    ledger = Ledger()
    layers, holders = build_layered_graph(ledger, sizes, data)
    depth = {ledger.base: -1}
    for index, layer in enumerate(layers):
        depth.update((currency, index) for currency in layer)

    def pick(items):
        return items[data.draw(st.integers(0, len(items) - 1))]

    def pick_target(ticket):
        # Currencies strictly below the denomination keep the graph
        # acyclic; holders are always legal.
        deeper = [c for c in depth if depth[c] > depth[ticket.currency]]
        return pick(holders + deeper)

    def mutate():
        action = data.draw(st.sampled_from(ACTIONS))
        tickets = [t for c in ledger.currencies() for t in c.issued]
        if action == "create" or not tickets:
            ticket = ledger.create_ticket(
                data.draw(amounts), currency=pick(list(depth)))
            ticket.fund(pick_target(ticket))
        elif action == "destroy":
            pick(tickets).destroy()
        elif action == "set_amount":
            pick(tickets).set_amount(
                data.draw(st.one_of(st.just(0.0), amounts)))
        elif action == "unfund":
            pick(tickets).unfund()
        elif action in ("fund", "retarget"):
            ticket = pick(tickets)
            if action == "retarget" or ticket.target is None:
                ticket.unfund()
                ticket.fund(pick_target(ticket))
        elif action == "start":
            pick(holders).start_competing()
        else:
            pick(holders).stop_competing()

    return ledger, holders, list(depth), mutate


def assert_exact(cached, fresh):
    """Bit for bit, and int 0 apart from 0.0: canonical state trees
    tell them apart."""
    assert repr(cached) == repr(fresh)


class TestNominalCacheDifferential:
    @given(layer_sizes, st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cached_nominal_values_equal_the_naive_walk(self, sizes, data):
        """Any sequence of structural mutations and activation flips,
        with every cache warmed in between: each holder's cached
        nominal funding, each currency's cached nominal value and --
        the side lotteries are drawn over -- each holder's cached
        ``funding()`` are exactly what a from-scratch walk computes."""
        ledger, holders, currencies, mutate = build_mutable_graph(sizes, data)

        def check():
            funding = fresh_valuation()[0]
            nominal_funding, nominal_value = fresh_valuation(nominal=True)
            for holder in holders:
                assert holder.nominal_funding() == nominal_funding(holder)
                assert holder.funding() == funding(holder)
            for currency in currencies:
                if not currency.is_base:
                    assert currency.nominal_base_value() \
                        == nominal_value(currency)
                assert currency.issued_amount() == sum(
                    t.amount for t in currency.issued)

        check()
        for _ in range(data.draw(st.integers(1, 12))):
            mutate()
            check()


class TestSparseReadDifferential:
    @given(layer_sizes, st.data())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sparsely_read_fundings_equal_the_naive_walk(self, sizes, data):
        """The test above warms every cache after every mutation, so an
        active-side walk is never skipped across two of them.  Here only
        a random, often empty, subset of holders reads ``funding()``
        between mutations: currencies go uncached, their walks are
        skipped, and whoever does read -- everyone, at the end -- must
        still get the from-scratch value.  A watcher on every holder
        fires exactly once per cached -> stale edge."""
        ledger, holders, _, mutate = build_mutable_graph(sizes, data)
        fired = []
        for holder in holders:
            holder.funding_watcher = fired.append

        def read(holder):
            assert holder.funding() == fresh_valuation()[0](holder)

        for _ in range(data.draw(st.integers(1, 25))):
            cached = [h for h in holders if h._funding is not None]
            del fired[:]
            mutate()
            # Only holders that were cached may fire, each at most once,
            # and exactly those that are stale now did.
            assert len(fired) == len(set(map(id, fired)))
            assert {id(h) for h in fired} \
                == {id(h) for h in cached if h._funding is None}
            for holder in data.draw(st.lists(st.sampled_from(holders),
                                             max_size=2, unique_by=id)):
                read(holder)
        for holder in holders:
            read(holder)


class TestSparseNominalReadDifferential:
    @given(layer_sizes, st.data())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sparsely_read_nominal_values_equal_the_naive_walk(self, sizes,
                                                               data):
        """The nominal twin of the test above.  Between mutations only a
        random, often empty, subset of holders reads
        ``nominal_funding()`` and of currencies ``nominal_base_value()``,
        so currencies go unread and their nominal walks are skipped;
        whoever does read -- everyone, at the end -- must still get the
        from-scratch value."""
        ledger, holders, currencies, mutate = build_mutable_graph(sizes,
                                                                  data)
        derived = [c for c in currencies if not c.is_base]

        def read_holder(holder):
            assert holder.nominal_funding() \
                == fresh_valuation(nominal=True)[0](holder)

        def read_currency(currency):
            assert currency.nominal_base_value() \
                == fresh_valuation(nominal=True)[1](currency)

        for _ in range(data.draw(st.integers(1, 25))):
            mutate()
            for holder in data.draw(st.lists(st.sampled_from(holders),
                                             max_size=2, unique_by=id)):
                read_holder(holder)
            for currency in data.draw(st.lists(st.sampled_from(derived),
                                               max_size=1, unique_by=id)):
                read_currency(currency)
        for holder in holders:
            read_holder(holder)
        for currency in derived:
            read_currency(currency)


class TestLedgerCacheDifferential:
    """Folds the three differentials above into one over both sides,
    with drawn read subsets, exact int/float identity and the
    sanitizer's cache audits after every mutation."""

    @given(layer_sizes, st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cached_values_equal_the_naive_walk(self, sizes, data):
        """Any sequence of structural mutations and activation flips.
        Between two, a drawn subset of holders and of currencies -- from
        none to all, drawn apart for each side -- reads its active and
        nominal values, so some caches go unread across many mutations
        and the walks at them are skipped; whatever is read, everything
        at the end, must be exactly what a from-scratch walk computes.
        After every mutation the sanitizer's cache audits, which peek,
        find nothing, and a watcher on every holder has fired exactly
        once per clean -> stale edge."""
        ledger, holders, currencies, mutate = build_mutable_graph(sizes, data)
        derived = [c for c in currencies if not c.is_base]
        fired = []
        for holder in holders:
            holder.funding_watcher = fired.append

        def subset(items):
            # One draw a subset: a bit mask, shrinking towards none.
            mask = data.draw(st.integers(0, (1 << len(items)) - 1))
            return [item for index, item in enumerate(items)
                    if mask >> index & 1]

        def read(active_holders, nominal_holders, active_currencies,
                 nominal_currencies):
            funding, value = fresh_valuation()
            nominal_funding, nominal_value = fresh_valuation(nominal=True)
            for holder in active_holders:
                assert_exact(holder.funding(), funding(holder))
            for holder in nominal_holders:
                assert_exact(holder.nominal_funding(),
                             nominal_funding(holder))
            for currency in active_currencies:
                assert_exact(currency.base_value(), value(currency))
            for currency in nominal_currencies:
                assert_exact(currency.nominal_base_value(),
                             nominal_value(currency))
                assert_exact(currency.issued_amount(), sum(
                    t.amount for t in currency.issued))

        for _ in range(data.draw(st.integers(1, 25))):
            cached = [h for h in holders if h._funding is not None]
            del fired[:]
            mutate()
            assert sanitize_ledger(ledger) == []
            # Only cached holders may fire, each at most once, and
            # exactly those that are stale now did.
            assert len(fired) == len(set(map(id, fired)))
            assert {id(h) for h in fired} \
                == {id(h) for h in cached if h._funding is None}
            read(subset(holders), subset(holders), subset(derived),
                 subset(derived))
        read(holders, holders, derived, derived)


class TestReferenceContract:
    @given(layer_sizes, st.data())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reference_reads_and_fills_no_cache(self, sizes, data):
        """With a wrong sentinel in every valuation slot, the reference
        still returns on both sides what it returned before, and every
        slot still holds its sentinel: it reads the structure only and
        fills nothing, so a sanitized run opens no walk gate."""
        ledger, holders, currencies, mutate = build_mutable_graph(sizes, data)
        for _ in range(data.draw(st.integers(0, 6))):
            mutate()
        sentinel = -1.5

        def both_sides():
            values = []
            for nominal in (False, True):
                funding, currency_value = fresh_valuation(nominal)
                values += [repr(funding(h)) for h in holders]
                values += [repr(currency_value(c)) for c in currencies]
            return values

        clean = both_sides()
        slots = [(h, slot) for h in holders
                 for slot in ("_funding", "_nominal_value")]
        slots += [(c, slot) for c in currencies
                  for slot in ("_value", "_nominal_value", "_issued_total")]
        for owner, slot in slots:
            setattr(owner, slot, sentinel)
        assert both_sides() == clean
        assert all(getattr(owner, slot) is sentinel for owner, slot in slots)
